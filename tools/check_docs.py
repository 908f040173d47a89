#!/usr/bin/env python3
"""Docs consistency gate for CI.

1. Every relative markdown link in README.md, DESIGN.md and docs/*.md
   must resolve to an existing file or directory.
2. The `--help` texts and the README CLI tour must agree: every
   subcommand and every `--flag` the binaries advertise appears in
   README.md, and every `--flag` the README documents is advertised by
   one of the binaries. The README documents both `wydb_analyze` and
   `wydb_serve`, so this check needs both binaries to run.
3. CLI smoke: misuse of the binary (no arguments, unknown subcommand or
   file, subcommand without a workload, flag without its value, unknown
   option) must exit nonzero and print usage to stderr — never crash or
   silently succeed. The `run` subcommand additionally enforces the
   fast-path gate: `--no-detection` on a workload that Theorem 4 does
   not certify safe + deadlock-free is refused (exit 2, "not certified"
   on stderr), while a certified workload runs it and prints exactly one
   deterministic `result:` line at MPL 1.
4. Server smoke: `wydb_serve` flag misuse exits 2 with usage on stderr
   (including the compact-encoding refusal), and a short scripted
   stdin/stdout session exercises the line protocol: certify, exact
   cache hit on resubmission, error isolation, stats, quit.

Usage: tools/check_docs.py [path/to/wydb_analyze [path/to/wydb_serve]]
Run from the repository root. The binary arguments are optional;
without them the corresponding checks are skipped (link checking still
runs), and help/README sync is skipped unless BOTH are given, since
README flags are the union of the two binaries' flags.
"""

import re
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
DOC_FILES = [REPO / "README.md", REPO / "DESIGN.md"] + sorted(
    (REPO / "docs").glob("*.md")
)

LINK_RE = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
FLAG_RE = re.compile(r"--[A-Za-z][A-Za-z-]*")
SUBCOMMAND_RE = re.compile(r"^  wydb_analyze (\w+)", re.MULTILINE)

# Flags that are prose (cmake/ctest/benchmark/compare_bench), not
# wydb_analyze options.
FLAG_ALLOWLIST = {
    "--help",
    "--build",
    "--output-on-failure",
    "--benchmark_filter",
    "--benchmark",  # FLAG_RE stops at '_': --benchmark_out etc.
    "--threshold",
}


def check_links() -> list[str]:
    errors = []
    for doc in DOC_FILES:
        if not doc.exists():
            errors.append(f"{doc.relative_to(REPO)}: file missing")
            continue
        for lineno, line in enumerate(doc.read_text().splitlines(), 1):
            for target in LINK_RE.findall(line):
                if target.startswith(("http://", "https://", "mailto:")):
                    continue
                path = target.split("#", 1)[0]
                if not path:
                    continue  # Pure in-page anchor.
                resolved = (doc.parent / path).resolve()
                if not resolved.exists():
                    errors.append(
                        f"{doc.relative_to(REPO)}:{lineno}: broken link "
                        f"'{target}'"
                    )
    return errors


def check_help_sync(analyze: Path, serve: Path) -> list[str]:
    errors = []
    readme = (REPO / "README.md").read_text()
    help_texts = {}
    for binary in (analyze, serve):
        try:
            help_texts[binary] = subprocess.run(
                [str(binary), "--help"],
                capture_output=True,
                text=True,
                check=True,
                timeout=30,
            ).stdout
        except (OSError, subprocess.SubprocessError) as exc:
            return [f"cannot run {binary} --help: {exc}"]

    for sub in set(SUBCOMMAND_RE.findall(help_texts[analyze])):
        if not re.search(rf"`{sub}`|wydb_analyze {sub}", readme):
            errors.append(f"subcommand '{sub}' in --help but not README.md")

    # README flags are the union over both binaries: the tours document
    # each binary's own flags, and several (--engine, --max-states, ...)
    # are deliberately shared.
    help_flags = set()
    for text in help_texts.values():
        help_flags |= set(FLAG_RE.findall(text))
    help_flags -= {"--help"}
    readme_flags = set(FLAG_RE.findall(readme)) - FLAG_ALLOWLIST
    for flag in sorted(help_flags - readme_flags):
        errors.append(f"flag '{flag}' in --help but not README.md")
    for flag in sorted(readme_flags - help_flags):
        errors.append(f"flag '{flag}' in README.md but not any --help")
    return errors


# The `--stats` line printed under each exact check: one greppable
# `stats:` token followed by fixed key=value fields (sweeps parse this).
STATS_LINE_RE = re.compile(
    r"^    stats: states_interned=\d+ sleep_set_pruned=\d+"
    r" deadline_polls=\d+"
    r" orbits=\d+ largest_orbit=\d+ bytes_per_state=\d+(?:\.\d+)?"
    r" arena_bytes=\d+ probe_table_bytes=\d+ spilled_levels=\d+"
    r" parallel_levels=\d+ fingerprint_collision_bound=[0-9.eE+-]+$",
    re.MULTILINE,
)

# The deterministic `run` result line. The certified workload has 3
# transactions, so --mpl 1 --rounds 5 commits exactly 15 times with no
# aborts, on the live engine and the simulator alike (MPL-1 determinism
# is part of the live engine's contract).
LIVE_RESULT_RE = re.compile(
    r"^result: engine=live policy=block commits=15 aborts=0"
    r" abort_rate=0\.000 deadlocked=0 gave_up=0$",
    re.MULTILINE,
)
SIM_RESULT_RE = re.compile(
    r"^result: engine=sim policy=block commits=15 aborts=0"
    r" abort_rate=0\.000 deadlocked=0 gave_up=0$",
    re.MULTILINE,
)

# The shared workload (3 transactions, 2 S-locks per round) commits the
# same 15 rounds at MPL 1 and grants exactly 30 shared locks; its perf
# line must carry the shared-mode counters (the result line format is
# mode-agnostic and shared by both workloads).
SHARED_PERF_RE = re.compile(
    r"^perf: .*shared_grants=30 upgrades=0 upgrade_aborts=0$",
    re.MULTILINE,
)

# The sweep CSV header, shared-mode traffic columns included.
SWEEP_CSV_HEADER_RE = re.compile(
    r"^policy,degree,mpl,runs,total_commits,total_aborts,avg_throughput,"
    r"avg_abort_rate,avg_p50,avg_p95,avg_p99,deadlocked_runs,"
    r"budget_exhausted_runs,gave_up_runs,shared_grants,upgrades,"
    r"upgrade_aborts$",
    re.MULTILINE,
)


def check_cli_smoke(binary: Path) -> list[str]:
    """Misuse must exit nonzero with usage on stderr; --help must work;
    the --stats output format must hold (one stats line per exact check,
    matching STATS_LINE_RE); the run subcommand's certification gate and
    deterministic result line must hold."""
    sample = REPO / "tools" / "sample_workload.wydb"
    certified = REPO / "tools" / "certified_workload.wydb"
    shared = REPO / "tools" / "shared_workload.wydb"
    # (args, want_code, want_stderr_substring, want_stdout_match)
    # where want_stdout_match is None or a (regex, expected_count) pair.
    # The sample workload is REFUTED, so plain analysis exits 1.
    cases = [
        (["--help"], 0, None, None),
        ([], 2, "usage", None),
        (["definitely-not-a-subcommand"], 2, "usage", None),
        (["simulate"], 2, "usage", None),
        (["sweep"], 2, "usage", None),
        (["--exact"], 2, "usage", None),  # Option where the workload goes.
        ([str(sample), "--no-such-option"], 2, "usage", None),
        ([str(sample), "--simulate"], 2, "needs a value", None),
        ([str(sample), "--search-threads"], 2, "needs a value", None),
        ([str(sample), "--search-threads", "four"], 2,
         "non-negative integer", None),
        ([str(sample), "--simulate", "-5"], 2, "non-negative integer",
         None),
        (["simulate", str(sample), "--policy"], 2, "needs a value", None),
        ([str(sample), "--engine"], 2, "needs a value", None),
        ([str(sample), "--engine", "bogus"], 2,
         "incremental, reference, parallel, or reduced", None),
        # --stats implies --exact; both exact checks print a stats line.
        ([str(sample), "--stats"], 1, None, (STATS_LINE_RE, 2)),
        ([str(sample), "--engine", "reduced", "--stats",
          "--search-threads", "2"], 1, None, (STATS_LINE_RE, 2)),
        # Store memory modes (DESIGN.md §9): misuse exits 2 before any
        # search runs; well-formed runs keep the stats-line format.
        ([str(sample), "--store-encoding"], 2, "needs a value", None),
        ([str(sample), "--store-encoding", "bogus"], 2,
         "plain, delta, or compact", None),
        ([str(sample), "--mem-budget-mb"], 2, "needs a value", None),
        ([str(sample), "--mem-budget-mb", "four"], 2,
         "non-negative integer", None),
        ([str(sample), "--max-states"], 2, "needs a value", None),
        ([str(sample), "--max-states", "many"], 2,
         "non-negative integer", None),
        ([str(sample), "--store-encoding", "compact"], 2,
         "--allow-compaction", None),
        ([str(sample), "--store-encoding", "delta", "--engine",
          "incremental"], 2, "parallel or reduced", None),
        ([str(sample), "--store-encoding", "compact", "--allow-compaction",
          "--engine", "reduced"], 2, "parallel engine", None),
        ([str(sample), "--store-encoding", "delta", "--stats"], 1, None,
         (STATS_LINE_RE, 2)),
        ([str(sample), "--store-encoding", "delta", "--engine", "reduced",
          "--stats"], 1, None, (STATS_LINE_RE, 2)),
        ([str(sample), "--store-encoding", "compact", "--allow-compaction",
          "--stats"], 1, None, (STATS_LINE_RE, 2)),
        ([str(sample), "--mem-budget-mb", "1", "--stats"], 1, None,
         (STATS_LINE_RE, 2)),
        # Live-engine `run` misuse contract (DESIGN.md §10): bad flags
        # exit 2 before any thread starts.
        (["run"], 2, "usage", None),
        (["run", str(sample), "--policy"], 2, "needs a value", None),
        (["run", str(sample), "--policy", "bogus"], 2,
         "block, detect, wound-wait, or wait-die", None),
        (["run", str(sample), "--engine", "bogus"], 2, "live or sim",
         None),
        (["run", str(sample), "--no-such-option"], 2, "usage", None),
        (["run", str(sample), "--rounds", "two"], 2,
         "non-negative integer", None),
        # The fast-path gate: the sample workload is refuted, so the
        # detection-free run is refused outright...
        (["run", str(sample), "--no-detection"], 2, "not certified",
         None),
        # ...while the certified workload runs it, deterministically at
        # MPL 1, and the simulator reproduces the exact counts.
        (["run", str(certified), "--no-detection", "--mpl", "1",
          "--rounds", "5"], 0, None, (LIVE_RESULT_RE, 1)),
        (["run", str(certified), "--engine", "sim", "--policy", "block",
          "--rounds", "5"], 0, None, (SIM_RESULT_RE, 1)),
        # Shared/exclusive lock modes (DESIGN.md §11): the S-mode
        # workload is certified, so plain analysis exits 0...
        ([str(shared)], 0, None, None),
        # ...the detection-free fast path accepts it with the same MPL-1
        # determinism contract as the X-only workload, and the perf line
        # carries the exact shared-mode counters on both engines.
        (["run", str(shared), "--no-detection", "--mpl", "1",
          "--rounds", "5"], 0, None, (LIVE_RESULT_RE, 1)),
        (["run", str(shared), "--no-detection", "--mpl", "1",
          "--rounds", "5"], 0, None, (SHARED_PERF_RE, 1)),
        (["run", str(shared), "--engine", "sim", "--policy", "block",
          "--rounds", "5"], 0, None, (SIM_RESULT_RE, 1)),
        (["run", str(shared), "--engine", "sim", "--policy", "block",
          "--rounds", "5"], 0, None, (SHARED_PERF_RE, 1)),
        # The generated read-mostly farm: misuse of the sweep knobs exits
        # 2 with a named complaint before any session runs...
        (["sweep", "--gen"], 2, "needs a value", None),
        (["sweep", "--gen", "bogus"], 2, "read-mostly", None),
        (["sweep", "--gen", "read-mostly", "--shared-fraction", "200"], 2,
         "0-100", None),
        (["sweep", "--gen", "read-mostly", "--workers", "two"], 2,
         "non-negative integer", None),
        (["sweep", str(sample), "--workers", "2"], 2,
         "need --gen read-mostly", None),
        (["sweep", str(sample), "--gen", "read-mostly"], 2,
         "give one or the other", None),
        # ...and the happy path emits the CSV with the shared-mode
        # traffic columns.
        (["sweep", "--gen", "read-mostly", "--workers", "2",
          "--read-entities", "2", "--runs", "1"], 0, None,
         (SWEEP_CSV_HEADER_RE, 1)),
    ]
    errors = []
    for args, want_code, want_stderr, want_stdout in cases:
        label = "wydb_analyze " + " ".join(args)
        try:
            proc = subprocess.run(
                [str(binary)] + args,
                capture_output=True,
                text=True,
                timeout=60,
            )
        except (OSError, subprocess.SubprocessError) as exc:
            errors.append(f"{label}: failed to run: {exc}")
            continue
        if proc.returncode != want_code:
            errors.append(
                f"{label}: exit {proc.returncode}, want {want_code}"
            )
        if want_stderr is not None and want_stderr not in proc.stderr:
            errors.append(f"{label}: stderr lacks '{want_stderr}'")
        if want_stdout is not None:
            regex, want_count = want_stdout
            matches = regex.findall(proc.stdout)
            if len(matches) != want_count:
                errors.append(
                    f"{label}: expected {want_count} stdout lines "
                    f"matching {regex.pattern!r}, found {len(matches)}"
                )
    return errors


def check_serve_smoke(binary: Path) -> list[str]:
    """wydb_serve misuse exits 2 with usage on stderr; a scripted
    stdin/stdout session exercises the protocol end to end."""
    certified = REPO / "tools" / "certified_workload.wydb"
    misuse = [
        (["--port"], "needs a value"),
        (["--port", "0"], "1-65535"),
        (["--max-states", "many"], "non-negative integer"),
        (["--cache-entries", "0"], "at least 1"),
        (["--engine", "bogus"],
         "incremental, reference, parallel, or reduced"),
        (["--store-encoding", "bogus"], "plain or delta"),
        (["--store-encoding", "compact"], "refused"),
        (["--preload"], "needs a value"),
        # I/O failure, not flag misuse: exits 2 but without usage.
        (["--preload", "/no/such/file.wydb", "--no-usage"], "cannot open"),
        (["--no-such-option"], "unknown option"),
        # Fault-tolerant serving knobs (docs/SERVE.md): the session cap
        # must admit at least one session, and the journal tuning flags
        # are meaningless without a journal to tune.
        (["--sessions"], "needs a value"),
        (["--sessions", "0"], "at least 1"),
        (["--journal"], "needs a value"),
        (["--journal-fsync", "1"], "need --journal"),
        (["--journal-compact", "0"], "need --journal"),
    ]
    errors = []
    for args, want_stderr in misuse:
        want_usage = "--no-usage" not in args
        args = [a for a in args if a != "--no-usage"]
        label = "wydb_serve " + " ".join(args)
        try:
            proc = subprocess.run(
                [str(binary)] + args,
                capture_output=True,
                text=True,
                timeout=30,
                stdin=subprocess.DEVNULL,
            )
        except (OSError, subprocess.SubprocessError) as exc:
            errors.append(f"{label}: failed to run: {exc}")
            continue
        if proc.returncode != 2:
            errors.append(f"{label}: exit {proc.returncode}, want 2")
        if want_stderr not in proc.stderr:
            errors.append(f"{label}: stderr lacks '{want_stderr}'")
        if want_usage and "usage" not in proc.stderr:
            errors.append(f"{label}: stderr lacks usage")

    # Protocol drive: certify the certified workload twice (the second
    # must be an exact cache hit), interleave a malformed request that
    # must not end the stream, and read the counters back.
    workload = certified.read_text()
    session = (
        "certify\n" + workload + "end\n"
        "certify\nsite s1: x\ntxn T: Lx Ux\ntxn T: Lx Ux\nend\n"
        "certify\n" + workload + "end\n"
        "stats\n"
        "quit\n"
    )
    label = "wydb_serve <protocol session>"
    try:
        proc = subprocess.run(
            [str(binary), "--preload", str(certified)],
            input=session,
            capture_output=True,
            text=True,
            timeout=60,
        )
    except (OSError, subprocess.SubprocessError) as exc:
        return errors + [f"{label}: failed to run: {exc}"]
    if proc.returncode != 0:
        errors.append(f"{label}: exit {proc.returncode}, want 0")
    out = proc.stdout
    for want in [
        "verdict: certified=yes source=cache",  # preloaded, so both hit
        "error: line 3: duplicate transaction 'T' (first defined at "
        "line 2)",
        "echo: txn T: Lx Ux",
        "cache_hits=2",
        "errors=1",
        "bye",
    ]:
        if want not in out:
            errors.append(f"{label}: stdout lacks '{want}'")
    dots = sum(1 for line in out.splitlines() if line == ".")
    if dots != 5:
        errors.append(
            f"{label}: expected 5 '.'-terminated responses, saw {dots}"
        )
    return errors


def main() -> int:
    errors = check_links()
    analyze = Path(sys.argv[1]) if len(sys.argv) > 1 else None
    serve = Path(sys.argv[2]) if len(sys.argv) > 2 else None
    if analyze and serve:
        errors += check_help_sync(analyze, serve)
    else:
        print("note: need both wydb_analyze and wydb_serve for help "
              "sync; skipping")
    if analyze:
        errors += check_cli_smoke(analyze)
    else:
        print("note: no wydb_analyze binary given; skipping CLI smoke")
    if serve:
        errors += check_serve_smoke(serve)
    else:
        print("note: no wydb_serve binary given; skipping server smoke")
    for error in errors:
        print(f"check_docs: {error}", file=sys.stderr)
    if not errors:
        print(f"check_docs: OK ({len(DOC_FILES)} docs checked)")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
