"""Command-line front end and the JSON sequence/report formats.

Three subcommands:

* ``run``   -- simulate a pulse program and emit a verification report;
* ``noise`` -- Monte Carlo jitter sweep plus the multiplicative estimate;
* ``emit``  -- write a built-in pulse program as a sequence file.

Reports go to stdout (or ``--out``); diagnostics go to stderr.  Exit codes:
0 success, 2 validation problem (a report that cannot be written too),
3 Fock-cutoff truncation.

A report is the text ``json.dumps(doc, indent=2, allow_nan=False)`` gives,
written without the pure-Python encoder that ``indent`` selects.  Each
amplitude list and the Monte Carlo samples are rendered when written, in
text slabs of ``SLAB_ITEMS`` items, about 90 B a listed amplitude, and
nothing is written until the whole report is rendered, so a refused run
writes nothing.  ``run --protocol chain:12 --n-max 2 --full`` (144 MB of
report) peaks at 0.22 GB RSS in 4 s, against 1.19 GB and 13 s when the
amplitudes were lists handed to ``json.dumps``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from collections import Counter
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii
from typing import Any, Callable

import numpy as np

from .errors import TruncationError, ValidationError
from .noise import NoiseConfig, fidelity_estimate, monte_carlo
from .protocol import PulseSequence, chain_sequence, cluster6_sequence, run
from .pulse import Pulse, PulseKind
from .register import (
    LEVEL_NAMES, LEVELS_BY_NAME, IonPrep, RegisterState, basis_labels,
    check_register_size, require_int, require_real,
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
                        "level": LEVEL_NAMES[level_value],
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
    if getattr(obj, "repeated", None) is not None:
        raise ValidationError(f"repeated field {obj.repeated!r} in {where}")
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


class _Fields(dict):
    """One JSON object from a file; ``repeated`` is a name it gave twice, or None."""

    def __init__(self, pairs: list[tuple[str, Any]]):
        super().__init__(pairs)  # json.load alone would keep the last value silently
        counts = Counter(name for name, _ in pairs)
        self.repeated = next((name for name, k in counts.items() if k > 1), None)


def load_sequence(path: str) -> PulseSequence:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh, object_pairs_hook=_Fields)
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


#: Items (kept amplitudes or samples) one slab of report text covers, so the
#: lists a slab is joined from stay bounded whatever the report's size.
SLAB_ITEMS = 1 << 16

#: Most amplitudes a ``--full`` report may list over all its states.  A
#: report is held as text until it is written, about 90 B a listed
#: amplitude: chain:12 --full at n_max=2, which the cap admits, writes
#: 144 MB and peaks at 0.22 GB RSS, and the cap itself is about 190 MB.
#: Until then each ``--full`` snapshot also keeps its state's read-only
#: amplitudes, at most 32 MB at the cap.
MAX_REPORT_AMPLITUDES = 2**21


# Writes JSON scalars.  Its iterencode runs json's pure-Python encoder, as
# json.dumps(indent=2) does, whose refusal of a non-finite float names the
# value; the C encoder's refusal does not.
_SCALARS = json.JSONEncoder(allow_nan=False)


@dataclass(frozen=True)
class _Array:
    """A report array of ``count`` items whose floats are ``values``, in order.

    ``slab(start, stop, depth)`` writes items start..stop-1 of the array at
    nesting ``depth``, as ``json.dumps(indent=2)`` does, without the array's brackets.
    """

    count: int
    values: np.ndarray
    slab: Callable[[int, int, int], str]


def _float_texts(values: np.ndarray) -> list[str]:
    """``repr`` of each float64, as ``json`` writes it, once per distinct bit pattern."""
    bits, where = np.unique(values.view(np.uint64), return_inverse=True)
    # tolist() gives Python floats and keeps the sign of a zero.
    texts = np.array([repr(x) for x in bits.view(np.float64).tolist()], dtype=object)
    return texts[where].tolist()


def _amplitude_block(state: RegisterState, full: bool) -> _Array:
    """The ``[label, re, im]`` list of the state's kept amplitudes."""
    amps = state.amplitudes
    kept = None  # every amplitude, under --full
    if not full:
        # hypot, as a scalar abs() computes it: the complex np.abs loop can
        # differ in the last bit, which moves amplitudes across the floor.
        kept = np.flatnonzero(np.hypot(amps.real, amps.imag) > REPORT_AMPLITUDE_FLOOR)
        amps = amps[kept]
    values = amps.view(np.float64)  # re and im of each kept amplitude in turn
    # Not the state itself, which would then outlive its step.
    n_ions, n_max = state.n_ions, state.n_max

    def slab(start: int, stop: int, depth: int) -> str:
        # Six parts an item: its opening (after the last item's close), the
        # label, a separator, re, a separator and im.
        item = "\n" + "  " * (depth + 1)
        part = item + "  "
        n = stop - start
        texts = _float_texts(values[2 * start:2 * stop])
        parts = ["," + part] * (6 * n)
        parts[0::6] = [item + "]," + item + "[" + part] * n
        parts[0] = "[" + part
        indices = np.arange(start, stop) if kept is None else kept[start:stop]
        parts[1::6] = map(encode_basestring_ascii, basis_labels(n_ions, n_max, indices))
        parts[3::6] = texts[0::2]
        parts[5::6] = texts[1::2]
        parts.append(item + "]")
        return "".join(parts)

    return _Array(amps.size, values, slab)


def _sample_block(samples: np.ndarray) -> _Array:
    """The list of Monte Carlo fidelity samples."""
    # Samples rarely repeat, so each is formatted on its own.
    return _Array(samples.size, samples, lambda start, stop, depth: (
        ",\n" + "  " * (depth + 1)).join(map(repr, samples[start:stop].tolist())))


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
    if full:  # also refused before simulating
        dim = check_register_size(seq.n_ions, n_max)
        listed = dim * (1 + len(seq.steps) if want_snapshots else 1)
        if listed > MAX_REPORT_AMPLITUDES:
            raise ValidationError(
                f"--full would list {listed} amplitudes ({dim} a state), "
                f"over the limit of {MAX_REPORT_AMPLITUDES}"
            )
    # Each step's kept amplitudes are copied as the run goes, so no state outlives its step.
    final, step_blocks = run(
        seq, n_max=n_max,
        snapshot=(lambda state: _amplitude_block(state, full)) if want_snapshots else None,
    )
    report_fields = verify_run(final, seq.n_ions)
    doc: dict[str, Any] = {
        "version": SEQUENCE_FILE_VERSION,
        "config": {
            "protocol": protocol_name,
            "n_ions": seq.n_ions,
            "n_max": n_max,
            "full": full,
        },
        "final_state": _amplitude_block(final, full),
        "verification": {
            **vars(report_fields),
            "global_phase": [report_fields.global_phase.real, report_fields.global_phase.imag],
        },
        "fidelity_estimate": estimate,
    }
    if want_snapshots:
        doc["snapshots"] = [
            {"step_index": i, "kind": pulse.kind.value, "ion": pulse.ion, "label": label,
             "amplitudes": amplitudes}
            for i, (pulse, label, amplitudes) in enumerate(
                zip(seq.steps, seq.labels, step_blocks), start=1)
        ]
    return doc


def build_noise_report(
    seq: PulseSequence,
    protocol_name: str,
    n_max: int,
    cfg: NoiseConfig,
    per_pulse_fidelity: float,
) -> dict[str, Any]:
    # Built first, so a bad per-pulse fidelity is refused before simulating.
    estimate = _estimate_block(seq, per_pulse_fidelity)
    result = monte_carlo(seq, cfg, n_max=n_max)
    return {
        "version": SEQUENCE_FILE_VERSION,
        "config": {
            "protocol": protocol_name,
            "n_ions": seq.n_ions,
            "n_max": n_max,
            "per_pulse_fidelity": per_pulse_fidelity,
            **vars(cfg),
        },
        # vars, not asdict, which would deep-copy the samples.
        **vars(result),
        "samples": _sample_block(result.samples),
        "fidelity_estimate": estimate,
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
        except argparse.ArgumentTypeError:
            raise ValidationError(f"bad chain size {tail!r} in --protocol") from None
        return chain_sequence(n), f"chain:{n}"
    raise ValidationError(
        f"unknown protocol {protocol!r}; use cluster6 or chain:N"
    )


def _check_out(out: str | None) -> None:
    """Refuse, before any work, an ``--out`` that names no file or cannot be written.

    The file itself is opened only once the report is built, so a run that
    fails leaves an existing file untouched; ``_emit`` still reports OSError.
    """
    if out is None or out == "-":
        return
    if os.path.isdir(out) or not os.path.basename(out):
        raise ValidationError(f"--out {out!r} does not name a file")
    parent = os.path.dirname(out) or "."
    if not os.path.isdir(parent):
        raise ValidationError(f"--out {out!r}: no directory {parent!r}")
    # Truncating an existing file needs write permission on that file alone.
    target, mode = (out, os.W_OK) if os.path.exists(out) else (parent, os.W_OK | os.X_OK)
    if not os.access(target, mode):
        raise ValidationError(f"--out {out!r}: {target!r} is not writable")


def _render_into(value: Any, depth: int, out: list[str]) -> None:
    indent = "\n" + "  " * (depth + 1)
    if isinstance(value, _Array):
        if not np.isfinite(value.values).all():  # json refuses the first non-finite float
            list(_SCALARS.iterencode(float(value.values[~np.isfinite(value.values)][0])))
        sep = "["
        for start in range(0, value.count, SLAB_ITEMS):
            out += sep + indent, value.slab(start, min(start + SLAB_ITEMS, value.count), depth)
            sep = ","
        out.append(indent[:-2] + "]" if value.count else "[]")
    elif isinstance(value, dict) and value:
        sep = "{"
        for key, item in value.items():
            out.append(sep + indent + encode_basestring_ascii(key) + ": ")
            _render_into(item, depth + 1, out)
            sep = ","
        out.append(indent[:-2] + "}")
    elif isinstance(value, (list, tuple)) and value:
        sep = "["
        for item in value:
            out.append(sep + indent)
            _render_into(item, depth + 1, out)
            sep = ","
        out.append(indent[:-2] + "]")
    else:  # a scalar, {} or []
        out.extend(_SCALARS.iterencode(value))


def _render(doc: Any) -> list[str]:
    """The text of ``json.dumps(doc, indent=2, allow_nan=False) + "\\n"``, in pieces.

    ``doc`` holds string keys, JSON scalars and ``_Array``s; a non-finite
    float raises the ValueError ``json`` raises for it.
    """
    out: list[str] = []
    _render_into(doc, 0, out)
    out.append("\n")
    return out


def _drop_stdout() -> None:
    """Point stdout's descriptor at the null device after a failed write.

    What the failed write left in the buffer would fail again when Python
    flushes stdout at exit, which prints a second error and exits 120.
    """
    try:
        fd = sys.stdout.fileno()
    except (OSError, ValueError):  # a stream with no descriptor, such as a test's capture
        return
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, fd)
    os.close(devnull)


def _emit(doc: dict[str, Any], out: str | None) -> None:
    try:
        pieces = _render(doc)
    except ValueError as err:
        raise ValidationError(f"report is not strict JSON: {err}") from err
    if out is None or out == "-":
        try:
            sys.stdout.writelines(pieces)
            sys.stdout.flush()
        except OSError as err:
            _drop_stdout()
            raise ValidationError(f"cannot write the report to stdout: {err}") from err
        return
    try:
        with open(out, "w", encoding="utf-8") as fh:
            fh.writelines(pieces)
    except OSError as err:
        raise ValidationError(f"cannot write --out {out!r}: {err}") from err


def whole_number(text: str) -> int:
    """Integer flags and ``chain:N``: ASCII digits only; int() also takes signs and _."""
    if not (text.isascii() and text.isdigit()):
        raise argparse.ArgumentTypeError(f"must be a whole number in ASCII digits, got {text!r}")
    try:
        return int(text)
    except ValueError:  # past sys.get_int_max_str_digits()
        raise argparse.ArgumentTypeError(
            f"must have at most {sys.get_int_max_str_digits()} digits, got {len(text)}"
        ) from None


def real_number(text: str) -> float:
    """Float flags: ASCII, no ``_``, no surrounding space; float() takes all three.

    ``nan`` and ``inf`` pass here and are refused, by name, where the value is used.
    """
    try:
        if text.isascii() and "_" not in text and text == text.strip():
            return float(text)
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(
        f"must be a real number in ASCII without spaces or _, got {text!r}"
    )


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
    parser.add_argument(
        "--per-pulse-fidelity", type=real_number, default=0.93,
        help="per sideband pulse fidelity for the multiplicative estimate",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="ionchain",
        description="Simulate sideband pulse programs on a chain of trapped ions",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="simulate a pulse program and verify the result")
    _add_selection_args(p_run)
    p_run.add_argument(
        "--snapshots", action="store_true", help="record the state after every step"
    )
    p_run.add_argument(
        "--full", action="store_true",
        help="list every amplitude, including numerically zero ones",
    )

    p_noise = sub.add_parser("noise", help="Monte Carlo pulse-area jitter sweep")
    _add_selection_args(p_noise)
    p_noise.add_argument(
        "--jitter-sigma", type=real_number, default=0.0,
        help="fractional pulse-area jitter standard deviation",
    )
    p_noise.add_argument("--trials", type=whole_number, default=100)
    p_noise.add_argument("--seed", type=whole_number, default=0)

    p_emit = sub.add_parser("emit", help="write a built-in program as a sequence file")
    p_emit.add_argument("--protocol", required=True)
    p_emit.add_argument("--out", help="write the file here instead of stdout")

    return parser


def main(argv: list[str] | None = None) -> int:
    """Parse ``argv``, then emit one document or print one refusal line.

    The checks run in order: the arguments, ``--out``, the pulse program,
    then the command's own.  Returns 0, 2 for a validation problem, or 3
    for a Fock-cutoff truncation.
    """
    try:
        args = build_parser().parse_args(argv)
        _check_out(args.out)
        seq, name = _select_sequence(args)
        if args.command == "run":
            doc = build_run_report(
                seq, name, args.n_max, args.per_pulse_fidelity, args.snapshots, args.full
            )
        elif args.command == "noise":
            cfg = NoiseConfig(jitter_sigma=args.jitter_sigma, trials=args.trials, seed=args.seed)
            doc = build_noise_report(seq, name, args.n_max, cfg, args.per_pulse_fidelity)
        else:  # emit
            doc = sequence_to_document(seq)
        _emit(doc, args.out)
    except (ValidationError, TruncationError) as err:
        # A truncation message already names the step and, for a sweep, the trial.
        kind, code = ("truncation", 3) if isinstance(err, TruncationError) else ("error", 2)
        # One line: each non-printable character is written as its Python escape.
        text = "".join(c if c.isprintable() else repr(c)[1:-1] for c in str(err))
        print(f"{kind}: {text}", file=sys.stderr)
        return code
    return 0


if __name__ == "__main__":
    sys.exit(main())
