"""Output checks of the census benchmark.

Each step of a session yields one check.  A check returns the list of its
problems; an empty list is a pass.
"""

import hashlib
import json

# every CensusRecord field except the lazy aut / jacobian_aut orders
DIGEST_FIELDS = ("id", "kind", "smooth", "note", "counts", "weil", "slopes", "stratum",
                 "p_rank", "a_number", "two_rank", "type43", "eo_mu", "eo_candidates")
# cone records of positive p-rank have no Cartier matrix yet; these fields are
# None there today and are meant to be filled in, so the digest skips them
CONE_OPEN_FIELDS = ("a_number", "type43")


def record_key(rec) -> tuple:
    cone_open = rec.kind == "cone" and rec.p_rank is not None and rec.p_rank > 0
    return tuple(None if cone_open and name in CONE_OPEN_FIELDS else getattr(rec, name)
                 for name in DIGEST_FIELDS)


def records_digest(records) -> str:
    h = hashlib.sha256()
    for rec in records:
        h.update(repr(record_key(rec)).encode())
        h.update(b"\n")
    return h.hexdigest()


def check_census(result: dict, want: dict) -> list[str]:
    problems = []
    if result["exit"] != 0:
        problems.append(f"census step exited {result['exit']}: {result.get('error', '')}")
        return problems
    if result["records"] != want["records"]:
        problems.append(f"{result['records']} records, want {want['records']}")
    if result["digest"] != want["digest"]:
        problems.append(f"records digest {result['digest'][:12]}, want {want['digest'][:12]}")
    return problems


def check_verify(result: dict, want: dict) -> list[str]:
    problems = []
    if result["exit"] != 0:
        problems.append(f"verify exited {result['exit']}")
    lines = result["stdout"].splitlines()
    passes = sum(1 for line in lines if line.startswith("PASS: "))
    if passes != 4 or len(lines) != 4:
        problems.append(f"{passes} PASS lines out of {len(lines)}, want 4 of 4")
    needle = f"{want['supersingular']} distinct supersingular"
    if not any(needle in line for line in lines):
        problems.append(f"no line reports {needle!r}")
    return problems


def check_stack_count(result: dict, want: dict) -> list[str]:
    if result["exit"] != 0:
        return [f"stack-count exited {result['exit']}"]
    try:
        out = json.loads(result["stdout"])
    except ValueError:
        return ["stack-count output is not JSON"]
    problems = []
    if out.get("members") != want["members"]:
        problems.append(f"{out.get('members')} members, want {want['members']}")
    if len(out.get("iso_reps") or ()) != want["iso_reps"]:
        problems.append(f"{len(out.get('iso_reps') or ())} isomorphism representatives, "
                        f"want {want['iso_reps']}")
    if out.get("stack_count") != want["stack_count"]:
        problems.append(f"stack count {out.get('stack_count')}, want {want['stack_count']}")
    return problems


CHECKS = {"census": check_census, "verify": check_verify, "stack-count": check_stack_count}
