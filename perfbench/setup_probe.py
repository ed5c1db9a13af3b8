"""Time one session start in a fresh interpreter: `import coedit` plus the
construction of the sessions' sites through the public constructors.

Reads {"src": path, "sessions": [{"engine", "mode", "sites", "doc"}, ...]}
as JSON on stdin and prints the elapsed seconds.
"""

import json
import sys
import time


def main() -> None:
    spec = json.load(sys.stdin)
    sys.path.insert(0, spec["src"])
    t0 = time.perf_counter()
    import coedit

    for session in spec["sessions"]:
        ids = list(range(session["sites"]))
        doc = session["doc"]
        if session["engine"] == "woot":
            engines = [coedit.WootSite.create(i, doc) for i in ids]
        elif session["mode"] == "sequencer":
            engines = [coedit.SequencerClient(site=i, state=doc) for i in ids]
            coedit.SequencerServer(client_ids=ids, state=doc)
        else:
            engines = [coedit.OtSite(site=i, state=doc) for i in ids]
        [coedit.Site(id=i, engine=e, external=doc) for i, e in zip(ids, engines)]
    print(repr(time.perf_counter() - t0))


if __name__ == "__main__":
    main()
