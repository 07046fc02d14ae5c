"""Command-line front end and the JSON sequence/report formats.

Three subcommands:

* ``run``   -- simulate a pulse program and emit a verification report;
* ``noise`` -- Monte Carlo jitter sweep plus the multiplicative estimate;
* ``emit``  -- write a built-in pulse program as a sequence file.

Reports go to stdout (or ``--out``); diagnostics go to stderr.  Exit codes:
0 success, 2 validation problem, 3 Fock-cutoff truncation.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Any

from .errors import TruncationError, ValidationError
from .noise import NoiseConfig, fidelity_estimate, monte_carlo
from .protocol import PulseSequence, Snapshot, chain_sequence, cluster6_sequence, run
from .pulse import Pulse, PulseKind
from .register import (
    LEVELS_BY_NAME, IonPrep, RegisterState, basis_label, require_int, require_real,
)
from .verify import verify_run

SEQUENCE_FILE_VERSION = "1"
REPORT_AMPLITUDE_FLOOR = 1e-14

#: Conventional sideband-excitation count behind the headline estimate for
#: this protocol; the sequence as written contains ten sideband pulses.
CONVENTIONAL_PULSE_COUNT = 8


# ---------------------------------------------------------------------------
# Sequence file format
# ---------------------------------------------------------------------------


def sequence_to_document(seq: PulseSequence) -> dict[str, Any]:
    """JSON-ready document for a pulse sequence."""
    ions = []
    for prep in seq.preps:
        terms = []
        for level_value, coeff in enumerate(prep.coefficients):
            if coeff != 0:
                terms.append(
                    {
                        "level": ("g", "e", "eprime")[level_value],
                        "re": float(coeff.real),
                        "im": float(coeff.imag),
                    }
                )
        ions.append(terms)
    steps = []
    for pulse, label in zip(seq.steps, seq.labels):
        entry: dict[str, Any] = {
            "kind": pulse.kind.value,
            "ion": pulse.ion,
            "phi": pulse.phi,
            "theta": pulse.theta,
        }
        if label is not None:
            entry["label"] = label
        steps.append(entry)
    return {"version": SEQUENCE_FILE_VERSION, "ions": ions, "steps": steps}


def _require_keys(obj: Any, allowed: set[str], required: set[str], where: str) -> None:
    if not isinstance(obj, dict):
        raise ValidationError(f"{where} must be a JSON object, got {obj!r}")
    unknown = set(obj) - allowed
    if unknown:
        raise ValidationError(f"unknown fields {sorted(unknown)} in {where}")
    missing = required - set(obj)
    if missing:
        raise ValidationError(f"missing fields {sorted(missing)} in {where}")


def _list(value: Any, where: str) -> list:
    if not isinstance(value, list):
        raise ValidationError(f"{where} must be a JSON list, got {value!r}")
    return value


def _name(value: Any, choices: dict[str, Any], where: str) -> Any:
    """The entry of ``choices`` named by the string ``value``."""
    if not isinstance(value, str) or value not in choices:
        raise ValidationError(f"{where} must be one of {sorted(choices)}, got {value!r}")
    return choices[value]


def sequence_from_document(doc: Any) -> PulseSequence:
    """Parse and validate a sequence document.

    Strict: unknown fields are rejected and no field is coerced to another
    type.  ``version`` is the string "1"; ``level`` and ``kind`` are known
    names; ``re``, ``im``, ``phi`` and ``theta`` are finite numbers; ``ion``
    is an integer >= 1; ``label`` is a string when present.
    """
    _require_keys(doc, {"version", "ions", "steps"}, {"version", "ions", "steps"},
                  "sequence document")
    if doc["version"] != SEQUENCE_FILE_VERSION:
        raise ValidationError(
            f"unsupported sequence file version {doc['version']!r}; "
            f"expected the string {SEQUENCE_FILE_VERSION!r}"
        )
    preps = []
    for i, terms in enumerate(_list(doc["ions"], "ions"), start=1):
        pairs = []
        for term in _list(terms, f"ion {i} preparation"):
            where = f"ion {i} preparation term"
            _require_keys(term, {"level", "re", "im"}, {"level", "re", "im"}, where)
            level = _name(term["level"], LEVELS_BY_NAME, f"{where} level")
            re = require_real(term["re"], f"{where} re")
            im = require_real(term["im"], f"{where} im")
            pairs.append((level, complex(re, im)))
        preps.append(IonPrep(pairs))
    steps = []
    labels = []
    kinds = {k.value: k for k in PulseKind}
    for j, entry in enumerate(_list(doc["steps"], "steps"), start=1):
        where = f"step {j}"
        _require_keys(entry, {"kind", "ion", "phi", "theta", "label"},
                      {"kind", "ion", "phi", "theta"}, where)
        ion = require_int(entry["ion"], f"{where} ion", 1)
        label = entry.get("label")
        if "label" in entry and not isinstance(label, str):
            raise ValidationError(f"{where} label must be a string, got {label!r}")
        steps.append(
            Pulse(
                _name(entry["kind"], kinds, f"{where} kind"),
                ion,
                require_real(entry["phi"], f"{where} phi"),
                require_real(entry["theta"], f"{where} theta"),
            )
        )
        labels.append(label)
    return PulseSequence(tuple(preps), tuple(steps), tuple(labels))


def load_sequence(path: str) -> PulseSequence:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as err:
        raise ValidationError(f"cannot read sequence file {path}: {err}") from err
    except (ValueError, RecursionError) as err:
        # JSONDecodeError, bad UTF-8, an integer past Python's digit limit,
        # or nesting deeper than the parser's recursion.
        raise ValidationError(f"sequence file {path} is not valid JSON: {err}") from err
    return sequence_from_document(doc)


# ---------------------------------------------------------------------------
# Report construction
# ---------------------------------------------------------------------------


def _amplitude_triples(state: RegisterState, full: bool) -> list[list[Any]]:
    triples = []
    for index, amp in enumerate(state.amplitudes):
        if full or abs(amp) > REPORT_AMPLITUDE_FLOOR:
            triples.append([basis_label(state, index), float(amp.real), float(amp.imag)])
    return triples


def _snapshot_entries(snapshots: list[Snapshot], full: bool) -> list[dict[str, Any]]:
    entries = []
    for snap in snapshots:
        entries.append(
            {
                "step_index": snap.step_index,
                "kind": snap.pulse.kind.value,
                "ion": snap.pulse.ion,
                "label": snap.label,
                "amplitudes": _amplitude_triples(snap.state, full),
            }
        )
    return entries


def _estimate_block(seq: PulseSequence, per_pulse_fidelity: float) -> dict[str, Any]:
    return {
        "per_pulse_fidelity": per_pulse_fidelity,
        "k8": fidelity_estimate(
            seq, per_pulse_fidelity, pulse_count_override=CONVENTIONAL_PULSE_COUNT
        ),
        "k_counted": fidelity_estimate(seq, per_pulse_fidelity),
        "counted_sideband_pulses": seq.sideband_count(),
        "conventional_sideband_pulses": CONVENTIONAL_PULSE_COUNT,
    }


def build_run_report(
    seq: PulseSequence,
    protocol_name: str,
    n_max: int,
    per_pulse_fidelity: float,
    want_snapshots: bool,
    full: bool,
) -> dict[str, Any]:
    # Built first, so a bad per-pulse fidelity is refused before simulating.
    estimate = _estimate_block(seq, per_pulse_fidelity)
    final, snapshots = run(seq, n_max=n_max, record_snapshots=want_snapshots)
    report_fields = verify_run(final, seq.n_ions)
    doc: dict[str, Any] = {
        "version": SEQUENCE_FILE_VERSION,
        "config": {
            "protocol": protocol_name,
            "n_ions": seq.n_ions,
            "n_max": n_max,
            "full": full,
        },
        "final_state": _amplitude_triples(final, full),
        "verification": {
            "fidelity": report_fields.fidelity,
            "stabilizer_expectations": list(report_fields.stabilizer_expectations),
            "leakage_eprime": report_fields.leakage_eprime,
            "leakage_mode": report_fields.leakage_mode,
            "global_phase": [
                report_fields.global_phase.real,
                report_fields.global_phase.imag,
            ],
        },
        "fidelity_estimate": estimate,
    }
    if want_snapshots:
        doc["snapshots"] = _snapshot_entries(snapshots, full)
    return doc


def build_noise_report(
    seq: PulseSequence,
    protocol_name: str,
    n_max: int,
    cfg: NoiseConfig,
) -> dict[str, Any]:
    result = monte_carlo(seq, cfg, n_max=n_max)
    return {
        "version": SEQUENCE_FILE_VERSION,
        "config": {
            "protocol": protocol_name,
            "n_ions": seq.n_ions,
            "n_max": n_max,
            "per_pulse_fidelity": cfg.per_pulse_fidelity,
            "jitter_sigma": cfg.jitter_sigma,
            "trials": cfg.trials,
            "seed": cfg.seed,
        },
        "mean_fidelity": result.mean_fidelity,
        "std_error": result.std_error,
        "samples": [float(x) for x in result.samples],
        "fidelity_estimate": _estimate_block(seq, cfg.per_pulse_fidelity),
    }


# ---------------------------------------------------------------------------
# Argument handling
# ---------------------------------------------------------------------------


def _select_sequence(args: argparse.Namespace) -> tuple[PulseSequence, str]:
    sequence_path = getattr(args, "sequence", None)
    if sequence_path is not None:
        return load_sequence(sequence_path), f"sequence:{sequence_path}"
    protocol = args.protocol
    if protocol == "cluster6":
        return cluster6_sequence(), "cluster6"
    if protocol.startswith("chain:"):
        tail = protocol.split(":", 1)[1]
        try:
            n = whole_number(tail)
        except ValueError:
            raise ValidationError(f"bad chain size {tail!r} in --protocol") from None
        return chain_sequence(n), f"chain:{n}"
    raise ValidationError(
        f"unknown protocol {protocol!r}; use cluster6 or chain:N"
    )


def _emit(doc: dict[str, Any], out: str | None) -> None:
    try:
        text = json.dumps(doc, indent=2, allow_nan=False)
    except ValueError as err:
        raise ValidationError(f"report is not strict JSON: {err}") from err
    if out is None or out == "-":
        sys.stdout.write(text + "\n")
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")


def whole_number(text: str) -> int:
    """Integer flags and ``chain:N``: ASCII digits only; int() also takes signs and _."""
    if not (text.isascii() and text.isdigit()):
        raise ValueError(text)
    return int(text)


class _Parser(argparse.ArgumentParser):
    """Reports a usage error as a ValidationError, so it exits 2 in one line."""

    def error(self, message: str):
        raise ValidationError(message)


def _add_selection_args(parser: argparse.ArgumentParser) -> None:
    source = parser.add_mutually_exclusive_group(required=True)
    source.add_argument("--protocol", help="built-in pulse program: cluster6 or chain:N")
    source.add_argument("--sequence", help="path to a JSON sequence file")
    parser.add_argument(
        "--n-max", type=whole_number, default=2, help="Fock cutoff (default 2)"
    )
    parser.add_argument("--out", help="write the report here instead of stdout")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="ionchain",
        description="Simulate sideband pulse programs on a chain of trapped ions",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="simulate a pulse program and verify the result")
    _add_selection_args(p_run)
    p_run.add_argument(
        "--per-pulse-fidelity", type=float, default=0.93,
        help="per sideband pulse fidelity for the multiplicative estimate",
    )
    p_run.add_argument(
        "--snapshots", action="store_true", help="record the state after every step"
    )
    p_run.add_argument(
        "--full", action="store_true",
        help="list every amplitude, including numerically zero ones",
    )

    p_noise = sub.add_parser("noise", help="Monte Carlo pulse-area jitter sweep")
    _add_selection_args(p_noise)
    p_noise.add_argument("--per-pulse-fidelity", type=float, default=0.93)
    p_noise.add_argument(
        "--jitter-sigma", type=float, default=0.0,
        help="fractional pulse-area jitter standard deviation",
    )
    p_noise.add_argument("--trials", type=whole_number, default=100)
    p_noise.add_argument("--seed", type=whole_number, default=0)

    p_emit = sub.add_parser("emit", help="write a built-in program as a sequence file")
    p_emit.add_argument("--protocol", required=True)
    p_emit.add_argument("--out", help="write the file here instead of stdout")

    return parser


def _cmd_run(args: argparse.Namespace) -> None:
    seq, name = _select_sequence(args)
    doc = build_run_report(
        seq, name, args.n_max, args.per_pulse_fidelity, args.snapshots, args.full
    )
    _emit(doc, args.out)


def _cmd_noise(args: argparse.Namespace) -> None:
    seq, name = _select_sequence(args)
    cfg = NoiseConfig(
        per_pulse_fidelity=args.per_pulse_fidelity,
        jitter_sigma=args.jitter_sigma,
        trials=args.trials,
        seed=args.seed,
    )
    doc = build_noise_report(seq, name, args.n_max, cfg)
    _emit(doc, args.out)


def _cmd_emit(args: argparse.Namespace) -> None:
    seq, _ = _select_sequence(args)
    _emit(sequence_to_document(seq), args.out)


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        if args.command == "run":
            _cmd_run(args)
        elif args.command == "noise":
            _cmd_noise(args)
        elif args.command == "emit":
            _cmd_emit(args)
    except ValidationError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except TruncationError as err:
        # The message already names the step and, for a sweep, the trial.
        print(f"truncation: {err}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
