"""Cross-cutting invariants over the bundled corpus."""

import hashlib
import io
import itertools
import json

from fpkit.cli import EXIT_PROVED, RunConfig, cmd_corpus, parse_manifest
from fpkit.constructions import MarkovInstance, XiRange, markov_semigroup
from fpkit.corpus import bundled_manifest, corpus_dir
from fpkit.coset import EnumLimits, todd_coxeter
from fpkit.presentations import Kind, Word, parse_presentation, parse_word
from fpkit.rewriting import (
    Completeness,
    Verdict,
    irreducible_words,
    knuth_bendix,
    words_equal,
)
from fpkit.verify import CheckVerdict, abelianization, collapse_check, embedding_spot_check
from test_rewriting import confluence_audit

W = parse_word
CORPUS = corpus_dir()
LIMITS = EnumLimits(10_000, 1_000_000)


def _load(name):
    return parse_presentation((CORPUS / name).read_text(encoding="utf-8"))


def _markov_rows():
    return [r for r in parse_manifest(bundled_manifest()) if r.kind == "markov"]


def _instance(row):
    return MarkovInstance(
        _load(row.inputs["s0"]),
        _load(row.inputs["s1"]),
        _load(row.inputs["s4"]),
        W(row.inputs["G"]),
        W(row.inputs["H"]),
        xi_range=XiRange(row.inputs["xi"]),
    )


def test_every_corpus_file_roundtrips():
    from fpkit.presentations import serialize_presentation

    files = sorted(CORPUS.glob("*.pres"))
    assert files
    for path in files:
        text = path.read_text(encoding="utf-8")
        p = parse_presentation(text)
        assert serialize_presentation(p) == text
        assert parse_presentation(serialize_presentation(p)) == p


def test_built_markov_systems_complete_and_confluent():
    for row in _markov_rows():
        build = markov_semigroup(_instance(row))
        rs = knuth_bendix(build.presentation)
        assert rs.status is Completeness.COMPLETE, row.name
        assert confluence_audit(rs), row.name


def test_collapse_and_embedding_passes_are_exclusive():
    # the two lemma branches can never both certify on one instance
    for row in _markov_rows():
        inst = _instance(row)
        build = markov_semigroup(inst)
        verdict = words_equal(inst.s1, inst.g, inst.h)
        projection = {g: Word.single(img) for g, img in build.maps["s4"].items()}
        inclusion = {g: Word.single(img) for g, img in build.maps["s0"].items()}
        collapse = collapse_check(build.presentation, inst.s4, projection, cutoff=4)
        embed = embedding_spot_check(inst.s0, build.presentation, inclusion, cutoff=4)
        assert not (
            collapse.verdict is CheckVerdict.PASS and embed.verdict is CheckVerdict.PASS
        ), row.name
        if verdict is Verdict.EQUAL:
            assert collapse.verdict is CheckVerdict.PASS
            assert embed.verdict is CheckVerdict.FAIL
        else:
            assert embed.verdict is CheckVerdict.PASS
            assert collapse.verdict is CheckVerdict.FAIL


def test_enumeration_agrees_with_rewriting_on_corpus_groups():
    for path in sorted(CORPUS.glob("base_*.pres")):
        p = parse_presentation(path.read_text(encoding="utf-8"))
        assert p.kind is Kind.GROUP
        rs = knuth_bendix(p)
        if rs.status is not Completeness.COMPLETE:
            continue
        forms = list(irreducible_words(rs, 201))
        result = todd_coxeter(p, (), LIMITS)
        if len(forms) <= 200:
            assert result.closed and result.index == len(forms), path.name
        else:
            assert not result.closed, path.name


def test_abelian_corpus_groups_index_matches_invariant_factors():
    for name in ("base_c5.pres", "base_klein.pres", "base_z6.pres", "base_z2.pres", "base_z.pres"):
        p = _load(name)
        inv = abelianization(p)
        result = todd_coxeter(p, (), LIMITS)
        if inv.free_rank > 0:
            assert not result.closed, name
        else:
            order = 1
            for t in inv.torsion:
                order *= t
            # these corpus groups are abelian, so the index is the group order
            assert result.closed and result.index == order, name


# sha256 of each bundled certificate with elapsed_ms and version masked, as
# `masked_digest` computes it.  A change that is meant to keep behaviour
# must leave every certificate byte-identical; update these only with a
# change that means to alter certificates, and say why.
CERTIFICATE_DIGESTS = {
    "group-distinct-f2": "7e98d91f332e68220ada42fbaaec6a29074a6004fc0ebc0e4840551c9ba7c2dd",
    "group-distinct-z": "ff1c9a1ed504c65f525877da81c875df6556bb89294461efc23d22ff3f8a1936",
    "group-distinct-z2": "409a62b3d672c6d705811771fe3ca4a243bee15e507df2044591587b9b5037ee",
    "group-distinct-z6": "3b6887b54da10e20838af48c4425cc8704ff3b97831c2d6cbcf12cf04a028a4c",
    "group-equal-c5": "0d0bbaa369875cd58dbcac9a2b543a13658976cd86312f69cc63c12d1dc93043",
    "group-equal-killed": "50dee7a3c6d8c5ae10467901d622fc0f7f47f1bb4f84d122eb70a0b9c2ce75ea",
    "group-equal-klein": "146da4dad192d15217e6abdf10029345dfc7b58df8fe35196f2c60e86a2777c4",
    "group-equal-z2": "f7c390e9617d192118e0ed038eeac56c74d34d77a41a82fa558583849075707a",
    "markov-distinct-commute": "8a81118d8d2593f484aa5cb95d6d9443af750c5b0cdb24409cb55772338ed2c4",
    "markov-distinct-cubed": "f5f2675793ed8ef5da97942af7eeffea92ad7f00a306e2ee1f389f0549e4337b",
    "markov-distinct-free": "99880b365f9f2a420dfd76bd7983a0aa371a59ef60f8e59c41199fc82025c8b7",
    "markov-distinct-pair": "ae8ffaf808cb3d94931968ae5a8bafb6775c8a84dff12d6b555199d2583b33cb",
    "markov-distinct-period": "62657dbc5e50b5b5169eb0375bfa3a9d9cf8968d3eecf386c55c677d4b24ca32",
    "markov-equal-absorb": "fbc3f118343e183d658bac38c982506a5e0ddab5aa5b23f80cb36736cc39cca4",
    "markov-equal-commute": "9a6f2a1866a12aa90f38d5fb082b2790c147f161309087f931134397494d235f",
    "markov-equal-cubed": "3354e7b8508cf17f77c1198e32bf68de681c07d99af6c610c3c6941004748b59",
    "markov-equal-idempotent": "ee65ae5e91255a56edb32a3fae1259f1e677f7481481dbdfa0cbd874c2ac7e80",
    "markov-equal-period": "65839c01a1c1251f0a22c2086e9787f27bdb5fe60cd2711d2e2d4a3d8323d85b",
    "property-nontrivial-test": "8bbac109a4695cd8984d98a9df6fa4d648a71452e5fae20b6317d3c5ff7a8ce6",
    "property-trivial-test": "122df5f874b4ae15ddb013174ca382aa73aa1d19174ead72aabdcde2a59f7c14",
}


def masked_digest(cert_json: str) -> str:
    payload = json.loads(cert_json)
    payload["elapsed_ms"] = 0
    payload["version"] = "X"
    return hashlib.sha256(json.dumps(payload, indent=2).encode()).hexdigest()


def test_bundled_certificates_are_pinned(tmp_path):
    cmd_corpus(bundled_manifest(), RunConfig(jobs=1, out_dir=tmp_path), out=io.StringIO())
    suffix = ".cert.json"
    got = {
        path.name[: -len(suffix)]: masked_digest(path.read_text(encoding="utf-8"))
        for path in tmp_path.glob("*" + suffix)
    }
    assert len(got) == 20
    assert got == CERTIFICATE_DIGESTS


def test_pool_writes_the_certificates_a_serial_run_writes(tmp_path):
    # each pool worker has its own caches, so this also checks that a
    # worker's cold caches certify what one warm process does
    for jobs in (1, 2):
        config = RunConfig(jobs=jobs, out_dir=tmp_path / str(jobs))
        assert cmd_corpus(bundled_manifest(), config, out=io.StringIO()) == EXIT_PROVED
    serial, pooled = (
        {path.name: masked_digest(path.read_text(encoding="utf-8")) for path in d.iterdir()}
        for d in (tmp_path / "1", tmp_path / "2")
    )
    assert len(serial) == 20
    assert pooled == serial
