#!/usr/bin/env python3
"""Benchmark of chansim's certify and verify commands.

    python3 bench/run.py --workload noisy_quantum --seed 1 --seconds 25 --trace 0

Runs one workload in this process on one thread: a seeded batch of
instances is written as JSON input files, and each instance's certify
command and its ``verify --in`` run in-process through ``chansim.cli.main``.
Set-up (generation, input files and one warm-up pass over the batch) runs
three times; then the batch runs in timed passes until ``--seconds`` have
passed (at least three). Every certificate is checked by ``checks.py`` and
must be byte-identical on every pass.

The last line on stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``. ``--trace 0`` reports the end-to-end metrics;
``--trace 1`` wraps the program's public functions (``tracing.py``) and
reports per-layer self times and counts instead. See README.md.
"""

import time

_PROCESS_START = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

BLAS_THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)
SETUP_REPEATS = 3
MIN_PASSES = 3
COLD_START_REPEATS = 5

END_TO_END_UNITS = {
    "setup_s": "s",
    "certify_s": "s",
    "verify_s": "s",
    "certify_largest_s": "s",
    "cert_bytes": "bytes",
    "peak_rss_mib": "MiB",
}


def _invoke(main, argv, tracer):
    """Run one CLI command in-process; only the call itself is timed. A
    command that raises, or exits through argparse, is reported by its
    output and a code other than 0 and 2, so it counts as failed."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            code = main(argv) if tracer is None else tracer.call("cli", main, argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
            code = 1 if code in (0, 2) else code
        except Exception:  # the batch goes on; the failure is reported
            code = -1
            err.write(traceback.format_exc())
        elapsed = time.perf_counter() - start
    return code, elapsed, out.getvalue() + err.getvalue()


class Batch:
    """The generated instances of one workload and their files."""

    def __init__(self, workload, seed):
        """Generate the instances and write their inputs to the current
        directory; file names are relative, so certificates (which echo
        the command) do not depend on where the checkout lies."""
        import workloads

        self.instances = workloads.generate(workload, seed)
        self.inputs = {}
        self.certs = {}
        for inst in self.instances:
            if inst.payload is not None:
                path = f"{inst.name}.in.json"
                Path(path).write_text(workloads.input_text(inst.payload), encoding="utf-8")
                self.inputs[inst.name] = path
            self.certs[inst.name] = f"{inst.name}.cert.json"
        self.forge = workloads.FORGED.get(workload)

    def run_pass(self, main, tracer=None, reference=None) -> dict:
        """One pass over the batch: certify, then verify, per instance.
        Certificate bytes are kept for the reference pass only; later
        passes keep whether they matched it, so the benchmark's own memory
        does not grow with the number of passes."""
        records = {}
        for inst in self.instances:
            in_path = self.inputs.get(inst.name)
            cert = self.certs[inst.name]
            code, certify_s, out = _invoke(main, inst.certify_argv(in_path, cert), tracer)
            verify_argv = ["verify", cert] + (["--in", in_path] if in_path else [])
            vcode, verify_s, vout = _invoke(main, verify_argv, tracer)
            data = Path(cert).read_bytes() if os.path.exists(cert) else b""
            records[inst.name] = {
                "code": code,
                "certify_s": certify_s,
                "vcode": vcode,
                "verify_s": verify_s,
                "verify_ok": vout == "verify: ok\n",
                "output": out + vout,
            }
            if reference is None:
                records[inst.name]["bytes"] = data
            else:
                records[inst.name]["same_bytes"] = data == reference["records"][inst.name]["bytes"]
        forged = None
        if self.forge is not None:
            forged = self._forged_verify(main, tracer)
        return {"records": records, "forged": forged}

    def _forged_verify(self, main, tracer) -> int:
        """Point a certificate at another input with the same outputs and
        inputs but a different n: verify must reject it (exit 2)."""
        src, onto = self.forge
        try:
            cert = json.loads(Path(self.certs[src]).read_text(encoding="utf-8"))
            other = json.loads(Path(self.certs[onto]).read_text(encoding="utf-8"))
            cert["input_digest"] = other["input_digest"]
        except (OSError, ValueError, KeyError):  # a certify command failed
            return -1
        Path("forged.cert.json").write_text(json.dumps(cert), encoding="utf-8")
        code, _, _ = _invoke(main, ["verify", "forged.cert.json", "--in", self.inputs[onto]], tracer)
        return code


def _evaluate(batch: Batch, reference: dict, passes: list) -> tuple[bool, int, int, list]:
    """(correct, attempted, failed, problems) over the timed passes."""
    import checks

    problems = []
    for inst in batch.instances:
        rec = reference["records"][inst.name]
        if rec["code"] in (0, 2) and rec["vcode"] == 0:
            for p in checks.check(inst.expect, json.loads(rec["bytes"]), rec["code"]):
                problems.append(f"{inst.name}: {p}")
    attempted = failed = 0
    for p in passes:
        for inst in batch.instances:
            rec = p["records"][inst.name]
            attempted += 1
            if rec["code"] not in (0, 2) or rec["vcode"] != 0 or not rec["verify_ok"]:
                failed += 1
                problems.append(f"{inst.name}: failed: {rec['output'].strip()[-300:]}")
            elif not rec["same_bytes"]:
                problems.append(f"{inst.name}: certificate bytes differ between passes")
        if p["forged"] is not None:
            attempted += 1
            if p["forged"] != 2:
                failed += 1
    failures = [q for q in problems if ": failed: " in q]
    correct = len(problems) == len(failures)
    return correct, attempted, failed, problems


def _median_of(passes, name, key):
    return statistics.median(p["records"][name][key] for p in passes)


def _end_to_end(batch, reference, passes, setup_s) -> dict:
    names = [inst.name for inst in batch.instances]
    largest = [inst.name for inst in batch.instances if inst.largest]
    values = {
        "setup_s": setup_s,
        "certify_s": sum(_median_of(passes, n, "certify_s") for n in names),
        "verify_s": sum(_median_of(passes, n, "verify_s") for n in names),
        "certify_largest_s": statistics.mean(_median_of(passes, n, "certify_s") for n in largest),
        "cert_bytes": sum(len(reference["records"][n]["bytes"]) for n in names),
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}


def _cold_start_ms(argv, env) -> float:
    times = []
    for _ in range(COLD_START_REPEATS):
        start = time.perf_counter()
        subprocess.run(argv, env=env, check=True, capture_output=True, timeout=60)
        times.append((time.perf_counter() - start) * 1000.0)
    return statistics.median(times)


def _per_layer(batch, reference, traced) -> dict:
    import tracing

    metrics = {}
    for bucket, name in tracing.SELF_TIME_METRICS.items():
        value = statistics.median(p["self_s"].get(bucket, 0.0) for p in traced)
        metrics[name] = {"value": value, "unit": "s"}
    for name, unit in tracing.COUNTERS.items():
        value = statistics.median(p["counts"].get(name, 0) for p in traced)
        metrics[name] = {"value": value, "unit": unit}
    for key in ("certify_s", "verify_s"):
        total = sum(_median_of(traced, inst.name, key) for inst in batch.instances)
        metrics[f"traced.{key}"] = {"value": total, "unit": "s"}

    env = dict(os.environ, PYTHONPATH=str(SRC))
    smallest = min(batch.instances, key=lambda inst: len(reference["records"][inst.name]["bytes"]))
    cold = [sys.executable, "-m", "chansim", "verify", batch.certs[smallest.name]]
    metrics["cli.cold_start_ms"] = {"value": _cold_start_ms(cold, env), "unit": "ms"}
    floor = [sys.executable, "-c", "import numpy"]
    metrics["cli.numpy_floor_ms"] = {"value": _cold_start_ms(floor, env), "unit": "ms"}
    return metrics


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    sys.path.insert(0, str(SRC))
    from chansim import certify, cli, jsonio, lp, majorize, mixdisc, simulate

    import tracing

    import_s = time.perf_counter() - _PROCESS_START
    out_root = HERE / "out"
    out_root.mkdir(exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{workload}-", dir=out_root)
    os.chdir(work)
    try:
        setups = []
        for _ in range(SETUP_REPEATS):
            start = time.perf_counter()
            batch = Batch(workload, seed)
            reference = batch.run_pass(cli.main)
            setups.append(time.perf_counter() - start)
        setup_s = import_s + statistics.median(setups)

        tracer = None
        if trace:
            tracer = tracing.Tracer()
            tracer.install(
                {
                    "certify": certify, "cli": cli, "jsonio": jsonio, "lp": lp,
                    "majorize": majorize, "mixdisc": mixdisc, "simulate": simulate,
                }
            )
        passes = []
        start = time.perf_counter()
        try:
            while len(passes) < MIN_PASSES or time.perf_counter() - start < seconds:
                gc.collect()
                if tracer is not None:
                    tracer.reset()
                p = batch.run_pass(cli.main, tracer, reference)
                if tracer is not None:
                    p["self_s"], p["counts"] = dict(tracer.self_s), dict(tracer.counts)
                passes.append(p)
        finally:
            if tracer is not None:
                tracer.uninstall()

        correct, attempted, failed, problems = _evaluate(batch, reference, passes)
        for problem in dict.fromkeys(problems):
            print(f"{workload}: {problem}", file=sys.stderr)
        if trace:
            metrics = _per_layer(batch, reference, passes)
        else:
            metrics = _end_to_end(batch, reference, passes, setup_s)
        totals = [sum(r["certify_s"] for r in p["records"].values()) for p in passes]
        print(
            f"{workload}: seed {seed}, set-ups {[round(t, 3) for t in setups]} s, "
            f"{len(passes)} timed passes of certify {[round(t, 3) for t in totals]} s",
            file=sys.stderr,
        )
        return {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    finally:
        os.chdir(ROOT)
        shutil.rmtree(work, ignore_errors=True)


def main(argv=None) -> int:
    for var in BLAS_THREAD_VARS:  # before numpy is first imported
        os.environ[var] = "1"
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "chansim" / "__init__.py").is_file():
        print(f"bench: no chansim sources under {SRC}", file=sys.stderr)
        return 2
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
