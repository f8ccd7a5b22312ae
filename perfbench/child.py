"""Child processes of the benchmark, started from the checkout root.

    child.py derive OUT TRACE      one fresh q5 derivation (a q5-derive item)
    child.py setup WORKLOAD SEED   one workload set-up, for setup_s

The derivation writes the `cubicalg derive --preset q5` document, the
derived structure constants and Casimir value, and (with TRACE = 1) its
spans and counters to the JSON file OUT.
"""

import contextlib
import io
import json
import os
import sys

sys.path.insert(0, os.path.join(os.getcwd(), "src"))


def derive(path, trace):
    from cubicalg import algebra, cli

    tracer = None
    if trace:
        import layertrace

        tracer = layertrace.Tracer()
        layertrace.install(tracer)
        tracer.item = 0
        tracer.active = True
    text = io.StringIO()
    with contextlib.redirect_stdout(text):
        code = cli.main(["derive", "--preset", "q5"])
    if tracer:
        tracer.active = False
    derived = algebra.q5_algebra()
    output = {
        "text": text.getvalue(),
        "code": code,
        "constants": {n: v.format() for n, v in derived.spec.as_dict().items()},
        "k": derived.k.format(),
    }
    if tracer:
        output["spans"] = tracer.spans
        output["counts"] = dict(tracer.counts)
    with open(path, "w") as fh:
        json.dump(output, fh)
    return 0 if code == 0 else 1


def setup(workload, seed):
    import workloads

    outdir = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out")
    workloads.SETUPS[workload](seed, outdir, False)
    return 0


if __name__ == "__main__":
    mode = sys.argv[1]
    if mode == "derive":
        sys.exit(derive(sys.argv[2], sys.argv[3] == "1"))
    sys.exit(setup(sys.argv[2], int(sys.argv[3])))
