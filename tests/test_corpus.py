"""Cross-cutting invariants over the bundled corpus."""

import hashlib
import io
import itertools
import json

from fpkit.cli import KINDS, EXIT_PROVED, RunConfig, _job_from_row, cmd_corpus, parse_manifest
from fpkit.constructions import MarkovInstance, XiRange, markov_semigroup
from fpkit.corpus import bundled_manifest, corpus_dir
from fpkit.coset import EnumLimits, todd_coxeter
from fpkit.presentations import (
    Kind,
    Word,
    parse_presentation,
    parse_word,
    serialize_presentation,
)
from fpkit.rewriting import (
    Budget,
    Completeness,
    Verdict,
    irreducible_words,
    knuth_bendix,
    words_equal,
)
from fpkit.verify import CheckVerdict, abelianization, collapse_check, embedding_by_rewriting
from test_rewriting import confluence_audit, general_completion

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
        # completed as the zero-free part, it is the whole completion's system
        whole = general_completion(build.presentation, Budget())
        assert (rs.rules, rs.status) == whole, row.name


def test_collapse_and_embedding_passes_are_exclusive():
    # the two lemma branches can never both certify on one instance
    for row in _markov_rows():
        inst = _instance(row)
        build = markov_semigroup(inst)
        verdict = words_equal(inst.s1, inst.g, inst.h)
        projection = {g: Word.single(img) for g, img in build.maps["s4"].items()}
        inclusion = {g: Word.single(img) for g, img in build.maps["s0"].items()}
        collapse = collapse_check(build.presentation, inst.s4, projection)
        embed = embedding_by_rewriting(
            inst.s0, build.presentation, inclusion, Budget(), "s0-embedding"
        )
        assert not (
            collapse.verdict is CheckVerdict.PASS and embed.verdict is CheckVerdict.PASS
        ), row.name
        if verdict is Verdict.EQUAL:
            assert collapse.verdict is CheckVerdict.PASS
            assert embed.verdict is CheckVerdict.FAIL
            # S0 keeps its letters in the build: distinct in S0, equal in S_{G,H}
            u, v = (W(side) for side in embed.witness.split(" | "))
            assert words_equal(inst.s0, u, v) is Verdict.DISTINCT, row.name
            assert words_equal(build.presentation, u, v) is Verdict.EQUAL, row.name
        else:
            assert embed.verdict is CheckVerdict.PASS
            assert collapse.verdict is CheckVerdict.FAIL
            # a generator that is neither the identity nor the zero
            g, z = Word.single(collapse.witness), Word.single(build.presentation.zero)
            for anchor in (Word(), z):
                assert words_equal(build.presentation, g, anchor) is Verdict.DISTINCT, row.name


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


# sha256 of each built presentation and of its audit trail, for the bundled
# markov and test-group rows.  Certificates do not show a renaming of the
# built generators or a changed trail line; these do.  Update them only with
# a change that means to alter a construction's output, and say why.
BUILD_DIGESTS = {
    "markov-equal-idempotent": ("69fe5ccf5319ff54902ed05920da8e7fcdf82dd40996f271072899344cf72b23", "295315e765d530eaaa1c31a58c9ac7a378de99240f62b62cf9abdaf7fdec0c57"),
    "markov-equal-cubed": ("399eb18dd9f4b008c5f9ff62cd374de6d8196b1d883f221d37383649a5515855", "04cec349946ae86dcec48d99a6978dd0877ddca5087cd8af013bd3135040cbad"),
    "markov-equal-commute": ("eb197ee6632b4378cd0eb85abada1971fc4b4f78a328a83520c981147db41239", "3975cda9d2076db2faf8db9fe0ed4e72b585b44608719564105d2bac7761dfe7"),
    "markov-equal-absorb": ("bfa790eec646dc7ac3d134c9a6e6ca936f2cebabfe81944fb957d3421a53f9e4", "0e47c642074b27c4f6faedba9c7c696c5e14a743f6551f74949641d0d7dfb0c2"),
    "markov-equal-period": ("e428d7e2cc662de90e0d59b28a908efa1e92b5d784d4b3d51107ac353a994269", "5368016f044f33a80370260b0283f6f16cc14c40d25b1224f161faf4d1c7d542"),
    "markov-distinct-free": ("135f36147ffbff575b8a3cefbfc37bb1a7ca20ba73bfe8261cf7fe24b6715a60", "1351562e4d091119f599b7445b7083e2b2ec697b3337f6fc1f2193d0f9848880"),
    "markov-distinct-cubed": ("80aa451bdcda5ecd007f84940d3d472961c4d1462ab7d9466ce5153ae6424909", "6c90eab861a0100c30ca9c5994229736581d692b07b57bae3de627876fe0ce8b"),
    "markov-distinct-commute": ("8257089072bfa332b8da4f342a742158e440e3540f6ab7696b30841a794fc8de", "8aac34e7a0e0e84e41a836d063c83c60613bf659dac7b3fcb859a314794c98c8"),
    "markov-distinct-pair": ("211314c9b2bfb445c0c1d251fa94f1eda5c02a7bc30081e9f1f59e7584f6aa50", "c7c73db8c10d18604aa7af3324d2d6a9a3e551577eee7aa3421c9a6a98cb366e"),
    "markov-distinct-period": ("b08363ebe571be1339122b5bab633b5644de14d54827f1b1d34acb08bcf6fba2", "f6c61f014ffb859a09a43cdecd7787dad20726fea5a5287b00a5c1a85def02dc"),
    "group-equal-killed": ("56acf1dfa25f2f6d91044c02219e1f509c76297ffad454ce7f8ce7c0fc285ca0", "54b2090a606db27fe9abbb589ea7d771dae9bdc3280109a8c74573778971456c"),
    "group-equal-c5": ("fb2af3ee0492e547f3e8286c73ccee7891a9a5b20b3a34ffab1f1150519832c2", "66af648bf260afd5a96f2493ee033d7a5771b3eff77ef94d10d52879b657b8b3"),
    "group-equal-klein": ("32f72babee3b43e3124113aa3ae9781a6302b0985aaa16b90061d4fcd03f87fd", "c96d00a2bc0204cb1aa19624f211bdc81f38836543db93ce39854dea4b412771"),
    "group-equal-z2": ("66e08b6f742a2a9f899333e6f8b47db09fb8a98da90f5bec07203c4b30e29af9", "89eb798810546b05e6ed2d7c3d19230f920bbb7a36643a9e2e66de4020e55773"),
    "group-distinct-z": ("c43956643f9ad38070d7bd26cc129c72b3f94253540412e7afe6c6d17b6eac66", "80f337b89b0dc3894ae09673eb860b230e0d842801c25580cf49194907a13e31"),
    "group-distinct-f2": ("0ffe7588ec558d9702b24db820a05818a88ca0e0640eeb2d108ccce05508d95e", "ec9565bdd89372d56cf704e17cb5c751fce973c357f9828f1b8102374201a898"),
    "group-distinct-z6": ("a421c47274d749613651885e9f708932e3822ae9289c8dbde1640ab755b115d7", "6b59527693f59663047817db2762f3c8ddc9bc9c10c2e7538b2e14f65eedf203"),
    "group-distinct-z2": ("f9d270b96503b072c2b23688d555cfa5e97ab17bb80ed12ef6ee777a7b2c18a5", "b6827b3eca0e4dbf86bb0a967faf397889db246f631bb928c8108ed2f808085f"),
}


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def test_bundled_constructions_are_pinned():
    got = {}
    for row in parse_manifest(bundled_manifest()):
        if row.kind in ("markov", "test-group"):
            build = KINDS[row.kind].build(_job_from_row(row, CORPUS, RunConfig()))
            pres, trail = serialize_presentation(build.presentation), build.trail.to_text()
            got[row.name] = (_sha256(pres), _sha256(trail))
    assert len(got) == 18
    assert got == BUILD_DIGESTS


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
