"""``certify`` reads its input only through ``helpers.CERTIFY_READS``:
``labels``, ``is_feasible``, ``_least``, ``_small``, ``_inside``,
``_odd_pair``, ``_twist_width`` and ``_minor_of``.

``certify.py`` reads no attribute ``masks``, ``full_mask``, ``mask_of``,
``set_of`` or ``is_even``, which a DeltaMatroid answers outside the
contract, and neither ``minors._witness`` nor ``Obstruction.verify`` reads
``masks``, ``_pos``, ``full_mask``, ``mask_of`` or ``set_of`` of its host,
so a record is built and checked from the reads alone. Two stand-ins show that
the reads suffice: ``FamilyReads``, a delta-matroid with its family
hidden, gives the same records as the delta-matroid on every instance
with n <= 4, and ``TwistedUniform``, which holds no family, gives the
family's exact certificate up to the family's 64-element cap, and one past
it. Each listed
read is needed: without it some route fails on an instance with n <= 3.
"""

import ast
import random
from math import comb
from pathlib import Path

import pytest

from twistwidth import certify, is_obstructed, matroid_twist_obstructions
from helpers import CERTIFY_READS, FamilyReads, TwistedUniform

SRC = Path(__file__).resolve().parent.parent / "src" / "twistwidth"


def _attribute_reads(tree, names, owner=None):
    """The attributes in ``names`` read under ``tree``, of the bare name
    ``owner`` only when it is given."""
    return sorted(
        node.attr for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr in names
        and (owner is None or isinstance(node.value, ast.Name) and node.value.id == owner)
    )


def _function(tree, name):
    return next(n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == name)


def _method(tree, cls, name):
    owner = next(n for n in tree.body if isinstance(n, ast.ClassDef) and n.name == cls)
    return _function(owner, name)


def _host_reads(function, names):
    """The attributes in ``names`` that ``function`` reads of its first parameter."""
    return _attribute_reads(function, names, function.args.args[0].arg)


# the reads a DeltaMatroid answers that the contract leaves out
CERTIFY_SKIPS = {"masks", "full_mask", "mask_of", "set_of", "is_even"}
VERIFY_SKIPS = {"masks", "_pos", "full_mask", "mask_of", "set_of"}


def test_certify_reads_no_masks():
    tree = ast.parse((SRC / "certify.py").read_text(encoding="utf-8"))
    assert _attribute_reads(tree, CERTIFY_SKIPS) == []


def test_verify_reads_no_family_of_its_host():
    verify = _method(ast.parse((SRC / "minors.py").read_text(encoding="utf-8")),
                     "Obstruction", "verify")
    assert _attribute_reads(verify, VERIFY_SKIPS, "host") == []


def test_witness_reads_no_family_of_its_host():
    witness = _function(ast.parse((SRC / "minors.py").read_text(encoding="utf-8")), "_witness")
    assert _host_reads(witness, VERIFY_SKIPS) == []


def test_the_checks_see_a_family_read():
    tree = ast.parse(
        "class Obstruction:\n"
        "    def verify(self, host):\n"
        "        return host._pos, host.masks[0], self.target.masks, host.labels,"
        " host.mask_of(x), d.set_of(y), d.is_even(), host.full_mask\n"
    )
    assert _attribute_reads(tree, CERTIFY_SKIPS) == [
        "full_mask", "is_even", "mask_of", "masks", "masks", "set_of"]
    assert _attribute_reads(_method(tree, "Obstruction", "verify"),
                            VERIFY_SKIPS, "host") == ["_pos", "full_mask", "mask_of", "masks"]


def test_the_witness_check_sees_a_host_masks_read():
    tree = ast.parse(
        "def _witness(d, x, y, route):\n"
        "    return d.labels, d._minor_of(x, y), d.masks, route.masks, host.masks\n"
    )
    assert _host_reads(_function(tree, "_witness"), VERIFY_SKIPS) == ["masks"]


@pytest.mark.parametrize("m", range(1, 7))
def test_twisted_uniform_reads_match_the_family(m):
    rng = random.Random(m)
    for r in range(m + 1):
        u = TwistedUniform(r, m, rng.getrandbits(m))
        d = u.family()
        assert u._least() == d._least()
        assert u._odd_pair() is d._odd_pair() is None
        for f in range(1 << m):
            assert u._small(f) == d._small(f)
            assert u._twist_width(f) == d._twist_width(f)
            for a in rng.sample(range(1 << m), min(8, 1 << m)):
                assert u._inside(a, f) == d._inside(a, f)
        for _ in range(20):
            x = rng.getrandbits(m)
            y = rng.getrandbits(m) & ~x
            assert u._minor_of(x, y) == d._minor_of(x, y)


def _same_records(u, d):
    assert certify(u) == certify(d)
    assert is_obstructed(u) is is_obstructed(d) is None
    assert matroid_twist_obstructions(u) is matroid_twist_obstructions(d) is None


@pytest.mark.parametrize("m", range(1, 13))
def test_twisted_uniform_certificates_match_the_family(m):
    rng = random.Random(m)
    for r in range(m + 1):
        for x in (0, rng.getrandbits(m), rng.getrandbits(m)):
            u = TwistedUniform(r, m, x)
            _same_records(u, u.family())


@pytest.mark.parametrize("seed", range(6))
def test_twisted_uniform_certificates_match_the_family_up_to_20(seed):
    rng = random.Random(seed)
    m = rng.randint(13, 20)
    u = TwistedUniform(rng.randint(0, m), m, rng.getrandbits(m))
    _same_records(u, u.family())


def test_twisted_uniform_certificates_match_the_family_up_to_64():
    # every U(r, m) with 21 <= m <= 64 and at most 3000 bases, untwisted and
    # twisted by one seeded x: 556 pairs
    rng = random.Random(21)
    for m in range(21, 65):
        for r in range(m + 1):
            if comb(m, r) <= 3000:
                for x in (0, rng.getrandbits(m)):
                    u = TwistedUniform(r, m, x)
                    _same_records(u, u.family())


def test_twisted_uniform_past_the_element_cap():
    u = TwistedUniform(2, 200, random.Random(0).getrandbits(200))
    cert = certify(u)
    assert cert.width == 0
    assert u._twist_width(u.mask_of(cert.twist_set)) == 0


def test_family_reads_give_the_same_records(dms_by_n):
    for n in (1, 2, 3, 4):
        for d in dms_by_n[n]:
            seen = FamilyReads(d)
            assert certify(seen) == certify(d)
            assert is_obstructed(seen) == is_obstructed(d)
            assert matroid_twist_obstructions(seen) == matroid_twist_obstructions(d)


def test_family_reads_hide_the_family(cat):
    seen = FamilyReads(cat[0])
    for name in ("masks", "_pos", "twist"):
        assert not hasattr(seen, name)


def _needs(name, d):
    """Whether some route raises AttributeError on ``d`` seen without ``name``."""
    seen = FamilyReads(d)
    delattr(seen, name)
    for route in (certify, is_obstructed, matroid_twist_obstructions):
        try:
            route(seen)
        except AttributeError as err:
            assert repr(name) in str(err)
            return True
    return False


@pytest.mark.parametrize("name", CERTIFY_READS)
def test_every_listed_read_is_made(name, dms_by_n):
    # the list names no read that the routes can do without
    assert any(_needs(name, d) for n in (1, 2, 3) for d in dms_by_n[n])
