"""Command-line front end: reset words, profiles, verification and scans.

Exit codes: 0 success, 1 usage or parse error, 2 domain negative (automaton
is not synchronizing, or a check or claim failed), 3 capacity exceeded.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path

from . import enumeration, series, sync
from .automaton import (BUILTIN_NAMES, LETTER_NAMES, Dfa, builtin_automaton,
                        dfa_from_json, image, parse_dfa, serialize_dfa,
                        word_from_str, word_to_str, _cerny_states)
from .errors import CapacityError, DfaError, DfaParseError
from .word_matrix import dense, matrix_of_word, render

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NEGATIVE = 2
EXIT_CAPACITY = 3


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def load_input(spec: str) -> Dfa:
    """Resolve a built-in name (cerny:<n>, kari, roman) or a file path."""
    # a bad name of a built-in's form gets the built-in's error, never a path
    if spec in ("kari", "roman") or spec.startswith("cerny:"):
        return builtin_automaton(spec)
    path = Path(spec)
    # Path("") is the working directory
    if not spec or not path.exists():
        raise DfaParseError(
            f"{spec!r} is neither a built-in ({', '.join(BUILTIN_NAMES)}) "
            f"nor an existing file")
    try:
        text = path.read_text()
    except (OSError, UnicodeDecodeError) as e:
        # an OSError's strerror omits the path, which the message already has
        reason = getattr(e, "strerror", None) or e
        raise DfaParseError(f"cannot read {spec!r}: {reason}") from None
    text = text.removeprefix("\ufeff")  # a byte order mark is no content
    if path.suffix == ".json" or text.lstrip().startswith("{"):
        return dfa_from_json(text)
    return parse_dfa(text)


def _load_for_search(spec: str) -> Dfa:
    """load_input for a command that runs the reset search: a cerny:<n>
    above the subset cap fails with the search's own error before its
    rows are built."""
    if spec.startswith("cerny:"):
        sync._check_subset_cap(_cerny_states(spec))
    return load_input(spec)


def _emit(text: str, out: str | None):
    if not out:
        sys.stdout.write(text)
        return
    try:
        Path(out).write_text(text)
    except OSError as e:
        raise UsageError(f"cannot write {out!r}: {e.strerror}") from None


def _profile_lines(dfa: Dfa, profile, as_csv: bool) -> str:
    lines = ["suffix_length,value"]
    lines += [f"{length},{value}" for length, value in profile]
    if not as_csv:
        lines.append("")
        lines.append("bound,count")
        for bound in range(1, dfa.n):
            lines.append(f"{bound},{series.threshold_count(profile, bound)}")
    return "\n".join(lines) + "\n"


def _reset_search(dfa: Dfa) -> sync.ResetResult | None:
    """The shortest reset word, once every letter is sure to have a name."""
    if dfa.k > len(LETTER_NAMES):
        raise DfaError(f"{dfa.k} letters, but words are written with the "
                       f"{len(LETTER_NAMES)} letter names {LETTER_NAMES}")
    return sync.shortest_reset_word(dfa)


def cmd_reset_word(args) -> int:
    dfa = _load_for_search(args.input)
    result = _reset_search(dfa)
    if result is None:
        if args.json:
            _emit(json.dumps({"input": args.input, "n": dfa.n, "k": dfa.k,
                              "synchronizing": False}, sort_keys=True) + "\n",
                  args.out)
        else:
            _emit(f"automaton: {args.input} (n={dfa.n}, k={dfa.k})\n"
                  "synchronizing: no\n", args.out)
        print("not synchronizing", file=sys.stderr)
        return EXIT_NEGATIVE

    payload = {
        "input": args.input,
        "n": dfa.n,
        "k": dfa.k,
        "synchronizing": True,
        "length": result.length,
        "word": word_to_str(result.word),
        "target": result.target,
        "states_expanded": result.states_expanded,
    }
    if args.profile:
        profile = series.suffix_profile(dfa, result.word, result.target)
        payload["profile"] = [[length, value] for length, value in profile]
    if args.show_matrix:
        matrix = matrix_of_word(dfa, result.word)
        payload["matrix"] = dense(matrix)
    if args.check_lemmas:
        payload["checks"] = [{"name": r.name, "passed": r.passed}
                             for r in enumeration.claim_checks(dfa, result)]
    code = (EXIT_OK if all(c["passed"] for c in payload.get("checks", ()))
            else EXIT_NEGATIVE)

    if args.json:
        _emit(json.dumps(payload, sort_keys=True, indent=2) + "\n", args.out)
        return code

    lines = [f"automaton: {args.input} (n={dfa.n}, k={dfa.k})",
             "synchronizing: yes",
             f"shortest reset word: {word_to_str(result.word, group=5)} "
             f"(length {result.length})",
             f"target state: {result.target}",
             f"subsets expanded: {result.states_expanded}"]
    if args.show_matrix:
        lines.append("matrix:")
        lines.append(render(matrix))
    if args.check_lemmas:
        for entry in payload["checks"]:
            lines.append(f"[{'PASS' if entry['passed'] else 'FAIL'}] {entry['name']}")
    out = "\n".join(lines) + "\n"
    if args.profile:
        out += _profile_lines(dfa, profile, False)
    _emit(out, args.out)
    return code


def cmd_profile(args) -> int:
    if args.word is not None:
        dfa = load_input(args.input)
        word = word_from_str(args.word, dfa.k)
    else:
        dfa = _load_for_search(args.input)
        result = _reset_search(dfa)
        if result is None:
            print("not synchronizing and no --word given", file=sys.stderr)
            return EXIT_NEGATIVE
        word = result.word
    if args.q is not None:
        if not 0 <= args.q < dfa.n:
            raise UsageError(f"--q {args.q} out of range [0, {dfa.n})")
        q = args.q
    else:
        img = image(dfa, dfa.full_set, word)
        if img & (img - 1):
            raise UsageError("word is not synchronizing; give --q explicitly")
        q = img.bit_length() - 1
    profile = series.suffix_profile(dfa, word, q)
    if args.json:
        payload = {"input": args.input, "word": word_to_str(word), "q": q,
                   "profile": [[length, value] for length, value in profile],
                   "threshold_counts": {str(b): series.threshold_count(profile, b)
                                        for b in range(1, dfa.n)}}
        _emit(json.dumps(payload, sort_keys=True, indent=2) + "\n", args.out)
    else:
        _emit(_profile_lines(dfa, profile, args.csv), args.out)
    return EXIT_OK


def cmd_verify(args) -> int:
    dfa = _load_for_search(args.input)
    expect = enumeration.EXAMPLE_EXPECTATIONS.get(args.input)
    results = enumeration.verify_automaton(dfa, expect)
    all_passed = all(r.passed for r in results)
    if args.json:
        payload = {"input": args.input, "passed": all_passed,
                   "checks": [r.to_dict() for r in results]}
        _emit(json.dumps(payload, sort_keys=True, indent=2) + "\n", args.out)
    else:
        lines = [f"[{'PASS' if r.passed else 'FAIL'}] {r.name}"
                 + (f": {r.detail}" if r.detail and not r.passed else "")
                 for r in results]
        lines.append(f"summary: {sum(r.passed for r in results)}/{len(results)} passed")
        _emit("\n".join(lines) + "\n", args.out)
    return EXIT_OK if all_passed else EXIT_NEGATIVE


def cmd_scan(args) -> int:
    cfg = enumeration.ScanConfig(
        n=args.n, k=args.k,
        require_strongly_connected=args.strongly_connected,
        worker_count=args.workers,
        canonicalize=args.canonical)
    if args.out:
        _emit("", args.out)  # an unwritable path fails before the scan
    report = enumeration.extremal_scan(cfg)
    encoded = report.to_json() if args.json or args.out else ""
    if args.out:
        _emit(encoded, args.out)
    if args.json:
        sys.stdout.write(encoded)
    else:
        lines = [f"scanned: {report.total} tables (n={report.n}, k={report.k})",
                 f"synchronizing: {report.synchronizing}",
                 f"max shortest reset length: {report.max_length} "
                 f"(attained by {report.max_length_count} tables, "
                 f"{len(report.witnesses)} up to relabeling)",
                 "histogram:"]
        for length, count in sorted(report.histogram.items()):
            lines.append(f"  {length}: {count}")
        lines.append(f"upper-bound violations: {len(report.upper_bound_violations)}")
        lines.append("conjecture counterexamples: "
                     f"{len(report.conjecture_counterexamples)}")
        sys.stdout.write("\n".join(lines) + "\n")
    return EXIT_OK


def cmd_examples(args) -> int:
    names = [args.name] if args.name else ["cerny:4", "kari", "roman"]
    chunks = []
    for name in names:
        dfa = builtin_automaton(name)
        chunks.append(f"# {name}\n" + serialize_dfa(dfa))
    _emit("\n".join(chunks), args.out)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="syncword",
                     description="Analyze synchronization of complete DFAs "
                                 "with exact arithmetic.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("reset-word", help="shortest reset word of an automaton")
    p.add_argument("input", help="built-in name (cerny:<n>, kari, roman) or file")
    p.add_argument("--show-matrix", action="store_true")
    p.add_argument("--profile", action="store_true",
                   help="append the suffix profile of the word")
    p.add_argument("--check-lemmas", action="store_true",
                   help="check the paper's claims about the found word")
    p.add_argument("--json", action="store_true")
    p.add_argument("--out")
    p.set_defaults(func=cmd_reset_word)

    p = sub.add_parser("profile", help="suffix profile of a word")
    p.add_argument("input")
    p.add_argument("--word", help="letters, e.g. 'baaab'; default: shortest reset word")
    p.add_argument("--q", type=int, help="target state; default: the word's target")
    p.add_argument("--csv", action="store_true", help="profile CSV only")
    p.add_argument("--json", action="store_true")
    p.add_argument("--out")
    p.set_defaults(func=cmd_profile)

    p = sub.add_parser("verify", help="run the lemma battery on an automaton")
    p.add_argument("input")
    p.add_argument("--json", action="store_true")
    p.add_argument("--out")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("scan", help="exhaustive scan over all small tables")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--strongly-connected", action="store_true")
    p.add_argument("--canonical", action="store_true",
                   help="one representative per relabeling class")
    p.add_argument("--json", action="store_true")
    p.add_argument("--out", help="write the JSON report to a file")
    p.set_defaults(func=cmd_scan)

    p = sub.add_parser("examples", help="dump built-in automata in text format")
    p.add_argument("name", nargs="?", help="one of cerny:<n>, kari, roman")
    p.add_argument("--out")
    p.set_defaults(func=cmd_examples)
    return parser


@functools.cache
def _cached_parser() -> argparse.ArgumentParser:
    # parse_args never mutates the parser, so one instance serves every call
    return build_parser()


def main(argv=None) -> int:
    parser = _cached_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except UsageError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except DfaParseError as e:
        print(f"parse error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except DfaError as e:
        print(f"input error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except CapacityError as e:
        print(f"capacity error: {e}", file=sys.stderr)
        return EXIT_CAPACITY
    except MemoryError:
        print("capacity error: out of memory", file=sys.stderr)
        return EXIT_CAPACITY


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
