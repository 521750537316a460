"""One benchmark job in a fresh interpreter: ``python3 job.py <spec.json>``.

The spec names the source tree, the CLI arguments, the functions whose first
call marks the end of set-up, whether to trace or to stop at the end of
set-up (a set-up probe), and where to write the result.  The job drives
``immimo.cli.main`` in process and writes a JSON result with monotonic
timestamps (comparable with the parent's), the exit code, the peak resident
set size, the speed-calibration samples (calib.py) and, when traced, the
per-layer summary.
"""

import time

STARTED = time.monotonic()

import contextlib  # noqa: E402
import importlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402


class SetupDone(BaseException):
    """Ends a set-up probe at the first trial or epoch; no handler in the CLI
    catches it."""


def mark_first_call(targets, stamps, stop=False):
    """Patch each "module.attr" so that its first call records the time.

    Whichever target fires first restores every original and records
    ``stamps["first_work"]``; later calls go straight to the originals.  With
    ``stop`` the first call raises SetupDone instead of running.
    """
    patched = []

    def restore():
        for module, attr, original in patched:
            setattr(module, attr, original)

    for target in targets:
        module_name, attr = target.rsplit(".", 1)
        try:
            module = importlib.import_module(f"immimo.{module_name}")
        except ImportError:
            continue
        original = getattr(module, attr, None)
        if not callable(original):
            continue

        def first(*args, _original=original, **kwargs):
            stamps.setdefault("first_work", time.monotonic())
            restore()
            if stop:
                raise SetupDone
            return _original(*args, **kwargs)

        patched.append((module, attr, original))
        setattr(module, attr, first)


def main(spec_path):
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    sys.path.insert(0, spec["src"])
    stamps = {"started": STARTED}
    import immimo.cli
    from calib import Sampler

    tracer = None
    if spec["trace"]:
        from spans import Tracer
        tracer = Tracer().install()
    mark_first_call(spec["first_work"], stamps, stop=spec["setup_only"])

    sampler = Sampler()
    sampler.start()
    stdout, stderr = io.StringIO(), io.StringIO()
    stamps["main_start"] = time.monotonic()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            if tracer is None:
                code = immimo.cli.main(spec["argv"])
            else:
                code = tracer.run(immimo.cli.main, spec["argv"])
        except SetupDone:
            code = 0
    stamps["end"] = time.monotonic()
    sampler.stop()

    result = {
        "exit_code": code,
        "stamps": stamps,
        "peak_rss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "speed_samples": sampler.samples,
        "stderr": stderr.getvalue()[-2000:],
    }
    if tracer is not None:
        tracer.uninstall()
        result["trace"] = tracer.summary()
        result["trace"]["absent"] = tracer.absent
        result["trace"]["counters"] = tracer.counters
        result["trace"]["counter_errors"] = tracer.counter_errors[:20]
        tracer.save(spec["spans"])
    with open(spec["result"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main(sys.argv[1])
