"""Unit tests for elements, folders, and briefcases."""

import pytest

from repro.core.briefcase import Briefcase
from repro.core.element import Element
from repro.core.errors import BriefcaseError, FolderNotFoundError
from repro.core.folder import Folder


class TestElement:
    def test_wraps_bytes(self):
        assert Element(b"abc").data == b"abc"

    def test_rejects_non_bytes(self):
        with pytest.raises(TypeError):
            Element("text")  # strings need Element.of / from_text

    def test_of_str_is_utf8(self):
        assert Element.of("héllo").data == "héllo".encode("utf-8")

    def test_of_bytes_raw(self):
        assert Element.of(b"\x00\xff").data == b"\x00\xff"

    def test_of_json_containers(self):
        element = Element.of({"b": 1, "a": [True, None]})
        assert element.as_json() == {"b": 1, "a": [True, None]}

    def test_of_json_is_canonical(self):
        assert Element.of({"a": 1, "b": 2}) == Element.of({"b": 2, "a": 1})

    def test_of_unencodable_rejected(self):
        with pytest.raises(BriefcaseError):
            Element.of(object())

    def test_of_element_passthrough(self):
        element = Element(b"x")
        assert Element.of(element) is element

    def test_as_text_rejects_binary(self):
        with pytest.raises(BriefcaseError):
            Element(b"\xff\xfe").as_text()

    def test_as_json_rejects_garbage(self):
        with pytest.raises(BriefcaseError):
            Element(b"{broken").as_json()

    def test_equality_with_bytes(self):
        assert Element(b"x") == b"x"
        assert Element(b"x") == Element(b"x")
        assert Element(b"x") != Element(b"y")

    def test_hashable(self):
        assert len({Element(b"a"), Element(b"a"), Element(b"b")}) == 2

    def test_len_is_byte_count(self):
        assert len(Element.of("abc")) == 3


class TestFolder:
    def test_requires_name(self):
        with pytest.raises(BriefcaseError):
            Folder("")

    def test_push_encodes(self):
        folder = Folder("F")
        folder.push("text")
        folder.push(7)
        assert folder[0].as_text() == "text"
        assert folder[1].as_json() == 7

    def test_ordering_preserved(self):
        folder = Folder("F", ["a", "b", "c"])
        assert folder.texts() == ["a", "b", "c"]

    def test_pop_first_fifo(self):
        folder = Folder("F", ["a", "b"])
        assert folder.pop_first().as_text() == "a"
        assert folder.pop_first().as_text() == "b"
        assert folder.pop_first() is None

    def test_every_reader_is_handed_elements(self):
        folder = Folder("F", [b"\xff", "t", 7])
        assert folder[0:2] == [Element(b"\xff"), Element(b"t")]
        assert [type(e) for e in folder[:]] == [Element] * 3
        assert list(folder) == [Element(b"\xff"), Element(b"t"),
                                Element(b"7")]
        assert folder.first() == Element(b"\xff")
        assert type(folder.push(b"x")) is Element
        assert folder.pop_first().data == b"\xff"

    def test_text_readers_refuse_what_as_text_refuses(self):
        briefcase = Briefcase({"F": [b"\xff"]})
        for read in (lambda: briefcase.get("F").texts(),
                     lambda: briefcase.get_text("F"),
                     lambda: briefcase.get_first("F").as_text()):
            with pytest.raises(BriefcaseError,
                               match="not valid UTF-8 text"):
                read()

    def test_getitem_out_of_range(self):
        with pytest.raises(BriefcaseError):
            Folder("F")[3]

    def test_first_empty(self):
        assert Folder("F").first() is None

    def test_replace(self):
        folder = Folder("F", ["old"])
        folder.replace(["new1", "new2"])
        assert folder.texts() == ["new1", "new2"]

    def test_byte_size(self):
        folder = Folder("F", [b"12", b"345"])
        assert folder.byte_size() == 5

    def test_copy_is_snapshot(self):
        folder = Folder("F", ["a"])
        clone = folder.copy()
        folder.push("b")
        assert clone.texts() == ["a"]

    def test_bool_and_len(self):
        assert not Folder("F")
        assert Folder("F", ["x"]) and len(Folder("F", ["x", "y"])) == 2

    def test_equality(self):
        assert Folder("F", ["a"]) == Folder("F", ["a"])
        assert Folder("F", ["a"]) != Folder("G", ["a"])
        assert Folder("F", ["a"]) != Folder("F", ["b"])


class TestBriefcase:
    def test_folder_created_on_demand(self):
        briefcase = Briefcase()
        briefcase.folder("NEW").push("x")
        assert briefcase.has("NEW")

    def test_get_missing_raises(self):
        with pytest.raises(FolderNotFoundError):
            Briefcase().get("MISSING")

    def test_constructor_mapping(self):
        briefcase = Briefcase({"A": ["1"], "B": [b"2", b"3"]})
        assert len(briefcase.get("B")) == 2

    def test_drop_state(self):
        briefcase = Briefcase({"BIG": ["data"], "KEEP": ["x"]})
        assert briefcase.drop("BIG")
        assert not briefcase.drop("BIG")
        assert briefcase.names() == ["KEEP"]

    def test_drop_all_except(self):
        briefcase = Briefcase({"A": [], "B": [], "C": []})
        dropped = briefcase.drop_all_except(["B"])
        assert sorted(dropped) == ["A", "C"]
        assert briefcase.names() == ["B"]

    def test_put_replaces(self):
        briefcase = Briefcase()
        briefcase.put("K", "v1")
        briefcase.put("K", "v2")
        assert briefcase.get_text("K") == "v2"
        assert len(briefcase.get("K")) == 1

    def test_get_text_default(self):
        briefcase = Briefcase()
        assert briefcase.get_text("NONE") is None
        assert briefcase.get_text("NONE", "dflt") == "dflt"

    def test_get_json(self):
        briefcase = Briefcase()
        briefcase.put("J", {"k": 1})
        assert briefcase.get_json("J") == {"k": 1}
        assert briefcase.get_json("MISSING", 5) == 5

    def test_append(self):
        briefcase = Briefcase()
        briefcase.append("L", "a")
        briefcase.append("L", "b")
        assert briefcase.get("L").texts() == ["a", "b"]

    @pytest.mark.parametrize("write", ["append", "put"])
    def test_a_refused_value_leaves_no_folder_behind(self, write):
        briefcase = Briefcase({"A": ["a"]})
        count = briefcase._cell[0]
        with pytest.raises(BriefcaseError, match="cannot encode object"):
            getattr(briefcase, write)("X", object())
        assert briefcase.names() == ["A"]
        assert briefcase._cell[0] == count
        getattr(briefcase, write)("X", "x")
        assert briefcase.names() == ["A", "X"]
        assert briefcase._cell[0] == count + 2
        assert briefcase.get("X")._version == 1

    @pytest.mark.parametrize("write", ["append", "put"])
    @pytest.mark.parametrize("name", ["", None, 7])
    def test_a_new_folder_needs_a_name(self, write, name):
        briefcase = Briefcase()
        with pytest.raises(BriefcaseError, match="non-empty string"):
            getattr(briefcase, write)(name, object())
        assert briefcase.names() == [] and briefcase._cell[0] == 0

    def test_snapshot_isolated(self):
        briefcase = Briefcase({"F": ["a"]})
        snapshot = briefcase.snapshot()
        briefcase.folder("F").push("b")
        briefcase.folder("NEW").push("c")
        assert snapshot.get("F").texts() == ["a"]
        assert not snapshot.has("NEW")

    def test_payload_bytes(self):
        briefcase = Briefcase({"A": [b"1234"], "B": [b"56"]})
        assert briefcase.payload_bytes() == 6

    def test_equality_ignores_insertion_order(self):
        a = Briefcase({"X": ["1"], "Y": ["2"]})
        b = Briefcase({"Y": ["2"], "X": ["1"]})
        assert a == b

    def test_dict_round_trip(self):
        original = Briefcase({"A": ["x"], "B": [b"\x00"]})
        assert Briefcase.from_dict(original.to_dict()) == original

    def test_iteration_and_contains(self):
        briefcase = Briefcase({"A": [], "B": []})
        assert {f.name for f in briefcase} == {"A", "B"}
        assert "A" in briefcase and "Z" not in briefcase
        assert len(briefcase) == 2
