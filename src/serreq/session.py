"""Session input handling, witnesses, and report documents.

The JSON input schema is

    { "engine": {"kind": K, ...},
      "objects": {name: payload, ...},
      "morphisms": {name: {"src": name, "dst": name, ...payload}, ...} }

where K is a key of THEORIES, whose class decodes the rest of the
descriptor.  Integer-engine object payloads are {"relations": [[...]],
"gens": g} and quiver payloads are {"dims": [d1, d2], "alpha": [[...]]}
with rational entries written "a/b"; each engine owns the codec of its
payloads.
Witnesses serialize enough data to replay one failed check in isolation;
report documents round-trip through JSON and are byte-identical for
identical inputs once timing fields are removed.
"""

from __future__ import annotations

import json

from . import __version__, serre
from .errors import InputValidationError
from .quiver import SinkSupportTheory
from .zmodules import FixtureTheory, PPrimaryTheory


# ---------------------------------------------------------------------------
# theories

# every theory by its descriptor kind, in --engine order; each class decodes
# its own descriptor (from_descriptor) and names the one flag it reads
THEORIES = {cls.kind: cls for cls in (PPrimaryTheory, SinkSupportTheory, FixtureTheory)}


def theory_from_descriptor(desc: dict):
    if not isinstance(desc, dict) or "kind" not in desc:
        raise InputValidationError("engine descriptor must be an object with a 'kind'")
    kind = desc["kind"]
    # an unhashable kind is unknown too, not a TypeError
    cls = THEORIES.get(kind) if isinstance(kind, str) else None
    if cls is None:
        raise InputValidationError(f"unknown engine kind: {kind}")
    return cls.from_descriptor(desc)


# ---------------------------------------------------------------------------
# witnesses


# witness data keys and the engine codec methods that carry them to JSON and back
_WITNESS_CODECS = {
    "object": ("obj_to_payload", "obj_from_payload"),
    "morphism": ("mor_to_payload", "mor_from_payload"),
    "morphism2": ("mor_to_payload", "mor_from_payload"),
    "ses": ("ses_to_payload", "ses_from_payload"),
}


def witness_to_jsonable(witness: dict) -> dict:
    engine = theory_from_descriptor(witness["engine"]).engine
    data = {}
    for key, value in witness["data"].items():
        if key in _WITNESS_CODECS:
            value = getattr(engine, _WITNESS_CODECS[key][0])(value)
        data[key] = value
    out = {k: v for k, v in witness.items() if k != "data"}
    out["data"] = data
    out["version"] = __version__
    return out


def witness_from_jsonable(doc: dict):
    """Decode a witness document; returns (theory, candidate_tag, check, data,
    version_mismatch)."""
    if not isinstance(doc, dict):
        raise InputValidationError("a witness must be a JSON object")
    for key in ("engine", "check", "data"):
        if key not in doc:
            raise InputValidationError(f"witness document lacks '{key}'")
    theory = theory_from_descriptor(doc["engine"])
    raw = doc["data"]
    if not isinstance(raw, dict):
        raise InputValidationError("witness 'data' must be an object")
    data = {}
    for key, value in raw.items():
        if key in _WITNESS_CODECS:
            value = getattr(theory.engine, _WITNESS_CODECS[key][1])(value, f"witness.{key}")
        data[key] = value
    mismatch = doc.get("version") != __version__
    return theory, doc.get("candidate"), doc["check"], data, mismatch


def replay_witness(doc: dict) -> dict:
    theory, tag, check, data, mismatch = witness_from_jsonable(doc)
    passed, detail = serre.replay_check(theory, tag, check, data)
    return {
        "check": check,
        "engine": theory.describe(),
        "candidate": tag,
        "pass": passed,
        "reproduced": not passed,
        "detail": detail,
        "version_mismatch": mismatch,
    }


# ---------------------------------------------------------------------------
# session input documents


def input_theory(doc: dict, theory=None):
    """The theory of an input document: its engine, which must agree with
    `theory` (from the flags) when both are given."""
    if not isinstance(doc, dict):
        raise InputValidationError("input document must be a JSON object")
    if "engine" in doc:
        file_theory = theory_from_descriptor(doc["engine"])
        if theory is not None and file_theory.describe() != theory.describe():
            raise InputValidationError(
                f"engine flags {theory.describe()} conflict with input file "
                f"engine {file_theory.describe()}")
        theory = file_theory
    if theory is None:
        raise InputValidationError("no engine given (flags or input file)")
    return theory


def load_session_input(doc: dict, theory=None):
    """(theory, {name: object}) of an input document.  Its morphisms are
    decoded and checked against the objects, but no command reads them."""
    theory = input_theory(doc, theory)
    for key in ("objects", "morphisms"):
        if not isinstance(doc.get(key) or {}, dict):
            raise InputValidationError(f"'{key}' must map names to payloads")
    objects = {}
    for name, payload in (doc.get("objects") or {}).items():
        objects[name] = theory.engine.obj_from_payload(payload, f"objects.{name}")
    for name, payload in (doc.get("morphisms") or {}).items():
        if not isinstance(payload, dict):
            raise InputValidationError(f"morphisms.{name}: payload must be an object")
        src_name, dst_name = payload.get("src"), payload.get("dst")
        for ref in (src_name, dst_name):
            if not isinstance(ref, str) or ref not in objects:
                raise InputValidationError(
                    f"morphisms.{name}: src/dst must name declared objects")
        theory.engine.mor_between(
            objects[src_name], objects[dst_name], payload, f"morphisms.{name}")
    return theory, objects


def load_json_file(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise InputValidationError(f"cannot read {path}: {exc}") from exc
    except ValueError as exc:  # JSONDecodeError, or an integer over the digit limit
        raise InputValidationError(f"{path} is not valid JSON: {exc}") from exc


# ---------------------------------------------------------------------------
# report documents


def build_document(command: dict, seed, results, check_reports, exit_code, timings):
    return {
        "command": command,
        "seed": seed,
        "versions": {"serreq": __version__},
        "results": results,
        "checks": [r.to_dict(witness_codec=witness_to_jsonable) for r in check_reports],
        "exit": exit_code,
        "timings": timings,
    }


def canonical_json(doc) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"


def strip_timings(doc):
    """A copy of the document with every timing field removed."""
    if isinstance(doc, dict):
        return {k: strip_timings(v) for k, v in doc.items()
                if k not in ("timings", "wall_ms", "elapsed_ms")}
    if isinstance(doc, list):
        return [strip_timings(v) for v in doc]
    return doc
