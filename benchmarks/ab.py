"""A/B one workload of the repo's benchmark: a base revision against this tree.

``make bench-ab BASE=<rev> WORKLOAD=<name> [PAIRS=10] [SEED=1]`` runs this file.

The protocol is the one docs and CHANGES.md entries quote (choosing-metrics,
"measuring in a small sandbox"): the command ``BENCHMARK.json`` declares, one
workload, ``PAIRS`` pairs of runs, the side that goes first alternating, and
nothing else on the machine meanwhile.  The base revision is checked out as a
git worktree beside this tree (``<tree>-ab-<sha>``, removed afterwards), or
into ``--worktree DIR``; a checkout of the right commit already there is
used as it is and left alone.  Each side runs the ``benchmarks/layered`` of
its own checkout; nothing there is edited.

Printed: every run, then per end-to-end metric either one line saying both
sides repeat one value each (and whether it is the same value) or each
side's median and quartiles; for the two timed metrics, ``setup_s`` and
``run_cost_ref``, also the pairs the change won and lost and the verdict:
``resolved`` when at least five pairs ran, the change won at least nine
tenths of them (a tie counts for neither side) *and* the medians lie further
apart than the base's own quartiles, else ``unresolved`` -- no gain may be
claimed on an ``unresolved``, whatever the medians say.  Fewer than five
pairs never resolve: the quartiles of three runs are two of the three.
Every value that moved (an exact one, a noisy one's median) is held against
the ``bound`` and direction ``BENCHMARK.json`` declares for its metric:
``within bound`` or ``OVER bound 5%: +13.4%``.  An exact metric over its
bound is a regression no re-run will cure, so the exit status is 1; a noisy
median over it is only reported, the spread beside it says how far to trust
it.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: The metrics timed on the host: they never repeat, so each gets a verdict.
TIMED = ("setup_s", "run_cost_ref")

#: The fewest pairs a verdict can resolve on.
MIN_PAIRS = 5


def _git(*args, cwd=REPO):
    return subprocess.run(
        ["git", "-C", cwd, *args], capture_output=True, text=True, check=True
    ).stdout.strip()


def _base_checkout(sha, directory):
    """The directory holding ``sha``'s files, and whether we made it."""
    if os.path.isdir(directory):
        try:
            found = _git("rev-parse", "HEAD", cwd=directory)
        except (OSError, subprocess.CalledProcessError):
            found = None
        if found != sha:
            sys.exit(f"ab.py: {directory} exists and is not a checkout of {sha[:12]}")
        return False
    _git("worktree", "add", "--detach", directory, sha)
    return True


def _run(command, checkout):
    """One benchmark run in ``checkout``: its metrics, by name."""
    done = subprocess.run(command, cwd=checkout, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    try:
        outcome = json.loads(lines[-1])
    except (IndexError, ValueError):
        sys.exit(f"ab.py: no result line from {checkout}:\n{done.stdout}{done.stderr}")
    if done.returncode or not outcome["correct"] or outcome["failed"]:
        sys.exit(f"ab.py: a run in {checkout} failed its checks:\n{done.stdout}")
    return {name: entry["value"] for name, entry in outcome["metrics"].items()}


def _spread(values):
    if len(values) < 2:
        return f"{values[0]:.6g}"
    q1, median, q3 = statistics.quantiles(values, n=4)
    return f"{median:.6g} [{q1:.6g}, {q3:.6g}]"


def _verdict(base, change):
    """choosing-metrics section 8, for a metric where lower is better."""
    won = sum(c < b for b, c in zip(base, change))
    lost = sum(c > b for b, c in zip(base, change))
    line = f"change won {won}, lost {lost} of {len(base)}"
    if len(base) < MIN_PAIRS:
        return line + f"   unresolved (fewer than {MIN_PAIRS} pairs)"
    q1, median, q3 = statistics.quantiles(base, n=4)
    gap = median - statistics.median(change)
    resolved = won >= 0.9 * len(base) and gap > q3 - q1
    return (
        f"{line}   {'resolved' if resolved else 'unresolved'} "
        f"(median gap {gap:.4g} against the base's quartile distance {q3 - q1:.4g})"
    )


def _against_bound(entry, base, change):
    """(how ``change`` sits under the metric's declared bound, whether over)."""
    moved = 0.0 if change == base else (change - base) / base if base else float("inf")
    worse = moved if entry["better"] == "lower" else -moved
    if worse > entry["bound"]:
        return f"OVER bound {entry['bound']:.0%}: {moved:+.1%}", True
    return f"within bound ({moved:+.1%})", False


def _report(entry, base, change):
    """One metric's line, and whether it is an exact metric over its bound."""
    name = entry["name"]
    if len(set(base)) == 1 and len(set(change)) == 1:
        line = f"  {name:16s} exact   {base[0]:.9g} -> {change[0]:.9g}   "
        if base[0] == change[0]:
            return line + "identical", False
        bound, over = _against_bound(entry, base[0], change[0])
        return line + "DIFFERS   " + bound, over
    line = f"  {name:16s} median  {_spread(base)} -> {_spread(change)}"
    bound, _ = _against_bound(entry, statistics.median(base), statistics.median(change))
    line += "   " + bound
    if name in TIMED:
        line += "   " + _verdict(base, change)
    return line, False


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True, help="revision to compare against")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--worktree", help="where the base checkout is or goes")
    args = parser.parse_args()

    with open(os.path.join(REPO, "BENCHMARK.json")) as handle:
        declaration = json.load(handle)
    if args.workload not in {entry["name"] for entry in declaration["workloads"]}:
        sys.exit(f"ab.py: BENCHMARK.json declares no workload {args.workload!r}")
    command = declaration["command"] + [
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(declaration["run_seconds"]), "--trace", "0",
    ]
    sha = _git("rev-parse", "--verify", f"{args.base}^{{commit}}")
    directory = os.path.abspath(args.worktree or f"{REPO}-ab-{sha[:12]}")
    ours = _base_checkout(sha, directory)
    sides = {"base": directory, "change": REPO}
    runs = {"base": [], "change": []}
    try:
        for pair in range(args.pairs):
            for side in ("base", "change") if pair % 2 == 0 else ("change", "base"):
                runs[side].append(_run(command, sides[side]))
            base, change = runs["base"][-1], runs["change"][-1]
            print(
                f"pair {pair + 1:2d}"
                + "".join(
                    f"  {name} base {base[name]:.4g} change {change[name]:.4g}"
                    for name in TIMED
                ),
                flush=True,
            )
    finally:
        if ours:
            _git("worktree", "remove", "--force", directory)

    print(f"\n{args.workload}  base {sha[:12]}  {args.pairs} pairs  seed {args.seed}")
    over = []
    for entry in declaration["end_to_end"]:
        name = entry["name"]
        line, is_over = _report(
            entry, [run[name] for run in runs["base"]], [run[name] for run in runs["change"]]
        )
        print(line)
        if is_over:
            over.append(name)
    if over:
        sys.exit(f"ab.py: exact metric over its bound: {', '.join(over)}")


if __name__ == "__main__":
    main()
