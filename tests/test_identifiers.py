"""Tests for the 5G identifier spaces."""

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.ran.identifiers import (
    RNTI_MAX,
    RNTI_MIN,
    Guti,
    GutiAllocator,
    RntiAllocator,
    Supi,
    TmsiAllocator,
    conceal_supi,
    tmsi_of_guti,
)


class TestSupi:
    def test_str_format(self):
        supi = Supi(mcc="001", mnc="01", msin="123456789")
        assert str(supi) == "imsi-00101123456789"

    def test_parse_roundtrip(self):
        supi = Supi(mcc="310", mnc="26", msin="0123456789")
        assert Supi.parse(str(supi)) == supi

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"mcc": "1", "mnc": "01", "msin": "123456789"},
            {"mcc": "abc", "mnc": "01", "msin": "123456789"},
            {"mcc": "001", "mnc": "1", "msin": "123456789"},
            {"mcc": "001", "mnc": "01", "msin": "123"},
            {"mcc": "001", "mnc": "01", "msin": "12345678901234"},
        ],
    )
    def test_invalid_fields_rejected(self, kwargs):
        with pytest.raises(ValueError):
            Supi(**kwargs)

    def test_parse_rejects_garbage(self):
        with pytest.raises(ValueError):
            Supi.parse("not-an-imsi")
        with pytest.raises(ValueError):
            Supi.parse("imsi-abc")


class TestSuci:
    def test_concealment_hides_msin(self):
        supi = Supi(mcc="001", mnc="01", msin="123456789")
        suci = conceal_supi(supi)
        assert supi.msin not in suci
        assert suci.startswith("suci-001-01-")

    def test_concealment_is_deterministic(self):
        supi = Supi(mcc="001", mnc="01", msin="123456789")
        assert conceal_supi(supi) == conceal_supi(supi)

    def test_different_supis_conceal_differently(self):
        a = conceal_supi(Supi(mcc="001", mnc="01", msin="123456789"))
        b = conceal_supi(Supi(mcc="001", mnc="01", msin="123456780"))
        assert a != b

    def test_key_changes_concealment(self):
        supi = Supi(mcc="001", mnc="01", msin="123456789")
        assert conceal_supi(supi, b"key-a") != conceal_supi(supi, b"key-b")


class TestRntiAllocator:
    def test_allocations_unique_and_in_range(self):
        alloc = RntiAllocator(random.Random(0))
        rntis = [alloc.allocate() for _ in range(500)]
        assert len(set(rntis)) == 500
        assert all(RNTI_MIN <= r <= RNTI_MAX for r in rntis)

    def test_release_allows_reuse(self):
        alloc = RntiAllocator(random.Random(0))
        rnti = alloc.allocate()
        assert rnti in alloc.in_use
        alloc.release(rnti)
        assert rnti not in alloc.in_use

    def test_release_unknown_is_noop(self):
        alloc = RntiAllocator(random.Random(0))
        alloc.release(0x1234)  # must not raise


class TestTmsiAllocator:
    def test_allocations_unique(self):
        alloc = TmsiAllocator(random.Random(1))
        tmsis = [alloc.allocate() for _ in range(1000)]
        assert len(set(tmsis)) == 1000

    def test_values_fit_32_bits(self):
        alloc = TmsiAllocator(random.Random(1))
        assert all(0 <= alloc.allocate() < 2**32 for _ in range(100))


class TestGuti:
    def test_allocator_mints_unique_tmsis(self):
        alloc = GutiAllocator(random.Random(2))
        gutis = [alloc.allocate() for _ in range(100)]
        assert len({g.tmsi for g in gutis}) == 100

    def test_s_tmsi_embeds_tmsi(self):
        guti = Guti(plmn="00101", amf_region=1, amf_set=1, amf_pointer=0, tmsi=0xDEADBEEF)
        assert guti.s_tmsi() & 0xFFFFFFFF == 0xDEADBEEF

    def test_str_contains_tmsi_hex(self):
        guti = Guti(plmn="00101", amf_region=1, amf_set=1, amf_pointer=0, tmsi=0xAB)
        assert str(guti).endswith(f"{0xAB:08x}")

    def test_release_accepts_none(self):
        alloc = GutiAllocator(random.Random(2))
        alloc.release(None)  # must not raise


gutis = st.builds(
    Guti,
    plmn=st.sampled_from(["00101", "310260", "999-70"]),
    amf_region=st.integers(0, 0xFF),
    amf_set=st.integers(0, 0x3FF),
    amf_pointer=st.integers(0, 0x3F),
    tmsi=st.integers(0, 2**32 - 1),
)


class TestTmsiOfGuti:
    """One GUTI parser, the strict inverse of ``Guti.__str__``."""

    @given(gutis)
    def test_inverse_of_str(self, guti):
        assert tmsi_of_guti(str(guti)) == guti.tmsi

    @given(gutis, st.sampled_from(["{}", "+{}", "0x{}", " {}", "{} ", "{}_0"]), st.integers(1, 7))
    def test_non_canonical_tails_are_refused(self, guti, form, cut):
        """Tails ``int(tail, 16)`` reads that ``Guti.__str__`` never writes."""
        bad = form.format(f"{guti.tmsi:08x}"[cut:])
        assert int(bad, 16) >= 0
        assert tmsi_of_guti(str(guti)[:-8] + bad) is None

    @pytest.mark.parametrize(
        "text", ["", "0000beef", "guti-00101-", "guti-00101-1f", "guti-00101-0000BEEF", "guti-x-1_f0000ff"]
    )
    def test_malformed_gutis(self, text):
        assert tmsi_of_guti(text) is None

    @pytest.mark.parametrize("value", [None, 0x0000BEEF, b"guti-00101-0000beef"])
    def test_non_strings(self, value):
        assert tmsi_of_guti(value) is None

    def test_the_callers_share_it(self):
        """Every GUTI parse in the tree goes through tmsi_of_guti."""
        import pathlib

        import repro

        root = pathlib.Path(repro.__file__).parent
        offenders = [
            str(path.relative_to(root))
            for path in root.rglob("*.py")
            if 'rsplit("-", 1)' in path.read_text()
        ]
        assert offenders == []


class TestPropertyBased:
    @given(st.integers(min_value=0, max_value=10**9 - 1))
    def test_supi_parse_inverse_of_str(self, msin_value):
        supi = Supi(mcc="001", mnc="01", msin=f"{msin_value:09d}")
        assert Supi.parse(str(supi)) == supi
