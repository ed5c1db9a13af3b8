"""`python -m coedit` runs the command line without installing the package."""
from .cli import main

raise SystemExit(main())
