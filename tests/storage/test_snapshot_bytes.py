"""Byte pins for the video and label stores' part of a checkpoint snapshot.

Each case stages a fixed pair of stores through ``to_arrays`` and writes the
result the way ``repro.core.checkpoint.write_snapshot_files`` does: the table
documents go into ``state.json`` through ``json.dumps`` and the column arrays
into ``arrays.npz`` through ``np.savez``.  The SHA-256 digests of each table
document and of each ``table__*`` npz member were recorded from the column-store
implementation these stores replaced, so a snapshot written by either one
resumes on the other.  Nothing here goes through a model or BLAS, so the digests
hold across Python and numpy versions.
"""

import hashlib
import io
import json
import zipfile

import numpy as np
import pytest

from repro.storage.label_store import LabelStore
from repro.storage.video_store import VideoStore
from repro.types import Label


def _populated():
    videos, labels = VideoStore(), LabelStore()
    videos.add("a.mp4", 10.0, start_time=3600.0, fps=30.0)
    videos.add("clips/b-long-name.mp4", 2.5, start_time=0.125, fps=24.0)
    videos.add("c.mp4", 1e-3, start_time=-7.5, fps=59.94)
    labels.add(Label(vid=0, start=0.0, end=1.0, label="walk"))
    labels.add(Label(vid=2, start=0.25, end=0.75, label="eat"))
    labels.add(Label(vid=0, start=4.0, end=5.5, label="walk"))
    labels.add(Label(vid=1, start=1.0, end=2.0, label="rest"))
    return videos, labels


def _non_ascii():
    videos, labels = VideoStore(), LabelStore()
    videos.add("vidéos/鹿-01.mp4", 12.0)
    videos.add("ascii.mp4", 3.0, start_time=1.5, fps=25.0)
    labels.add(Label(vid=0, start=0.0, end=1.0, label="größe"))
    labels.add(Label(vid=1, start=1.0, end=2.0, label="走る"))
    return videos, labels


def _empty():
    return VideoStore(), LabelStore()


EXPECTED = {
    "populated": (
        _populated,
        {
            "doc:videos": "ba9b94cb2b5ac3699f2a07f65b7d2c1f9ece83277273ecb9787a9968d01dcdc5",
            "doc:labels": "694d3f875f5a143972879f60055e9128cc2169a151267912e8c272f8dd7b0703",
            "npz:table__videos__vid.npy": "eed7c944a674e7e9a3f4baf8393c37b9f169123e13a884a08b151a39da2adef5",
            "npz:table__videos__path.npy": "ccc4ba073ef5fabd99352145d0b5bd6d2042941d06893900f99ec147fd03ab58",
            "npz:table__videos__duration.npy": "863b9b11aa76fa773a7551f09cbf354faaed10c0ca143e7df5d109cd865fb7b7",
            "npz:table__videos__start_time.npy": "40cf131328c10e9ab03f84ca37e95f392167fd9263ef4eb624eb9344e5b950ec",
            "npz:table__videos__fps.npy": "c29b46c8e8843e8832da2e73168b8ae2895338b1ffffa597a99452940d451d18",
            "npz:table__labels__label_id.npy": "dc5de563b86c3210ee39b3adc9c39934ef72b87a5c20f475ccc78e336ea75a7e",
            "npz:table__labels__vid.npy": "0343b2b7134d7b39e12a7364cc5b1169ffd17ab32309a22a08931f9813b34936",
            "npz:table__labels__start.npy": "cc2e8bbab95d2536c3e87adee2e07cec7367470ee7847b7172348625db25d432",
            "npz:table__labels__end.npy": "070d38e46b97dafc25e1691e1654c3ba28090a27e09827166b4b7e7887685bef",
            "npz:table__labels__label.npy": "1bb8791c577d1b4ab6db3295a18558f57c7719ee14b6e229c086105ef466de4b",
            "npz:order": "9e908c6ca424397bfd48a33f7af476986b2852f4d428c70f6ba7b83d5254f717",
        },
    ),
    "non_ascii": (
        _non_ascii,
        {
            "doc:videos": "20d9bb725eb16e34b8b77dcfc3f8c30a8f07a3b89925fda7dbfc9df291354925",
            "doc:labels": "dad504c9759086795f591010faa7b24e0e65ea000340dffd0ef0142c6b8f5299",
            "npz:table__videos__vid.npy": "edf57b3e7cc4d837db7a3b400e84ffa2cc07b6adc347edef9feabbc11c5183cb",
            "npz:table__videos__path.npy": "97138f5e3a0459ceb3005854792f84439fecbb4eb934a2b3b7c68d932c98bdcf",
            "npz:table__videos__duration.npy": "8b3e44185b7a8d6ee8d17c5fbea0ab8c05436085b7c243fba0abe6f37f9d5065",
            "npz:table__videos__start_time.npy": "5ce1add692ac88cb46eac96473ac483b86fd318362335c75892482f01a632880",
            "npz:table__videos__fps.npy": "286b7c71a0a4f1c14ad854b121bb0b989e36d7d6b8110659059750a0ed90e8a1",
            "npz:table__labels__label_id.npy": "edf57b3e7cc4d837db7a3b400e84ffa2cc07b6adc347edef9feabbc11c5183cb",
            "npz:table__labels__vid.npy": "edf57b3e7cc4d837db7a3b400e84ffa2cc07b6adc347edef9feabbc11c5183cb",
            "npz:table__labels__start.npy": "f8e9076998b78178dd76b3d4c28a9eaa1969be3320f51fc20f389114ff5248b6",
            "npz:table__labels__end.npy": "97543ef511946fb0ed9a767d663daec2de16bd78efcb58cc58de37e31c96c0e6",
            "npz:table__labels__label.npy": "e13881941bd6954dc4f38d9058ffcfb600ec9702544febc23bbfc9840a23a3ca",
            "npz:order": "9e908c6ca424397bfd48a33f7af476986b2852f4d428c70f6ba7b83d5254f717",
        },
    ),
    "empty": (
        _empty,
        {
            "doc:videos": "dda24db580d23b8438fd45e37efe01440286b4dd16e1d81cfe0506a7ee7e1a4b",
            "doc:labels": "f6b9a45bf08c3f8a860421956ef4ff5cc54499e69d954391d8434d7c48170bf0",
            "npz:table__videos__vid.npy": "e734dac55ea9fbbe782af2d8c02c3c5992131906228afb2aaaf137d6f3ed74db",
            "npz:table__videos__path.npy": "2756d2200a5e816e383a397473937a1aec034bc42e52c288f6f8d3c0c2f73785",
            "npz:table__videos__duration.npy": "fdee2f2368bf2af9c942f32cce9d982e48dfc46889bf923e99bc9ac834a4ba46",
            "npz:table__videos__start_time.npy": "fdee2f2368bf2af9c942f32cce9d982e48dfc46889bf923e99bc9ac834a4ba46",
            "npz:table__videos__fps.npy": "fdee2f2368bf2af9c942f32cce9d982e48dfc46889bf923e99bc9ac834a4ba46",
            "npz:table__labels__label_id.npy": "e734dac55ea9fbbe782af2d8c02c3c5992131906228afb2aaaf137d6f3ed74db",
            "npz:table__labels__vid.npy": "e734dac55ea9fbbe782af2d8c02c3c5992131906228afb2aaaf137d6f3ed74db",
            "npz:table__labels__start.npy": "fdee2f2368bf2af9c942f32cce9d982e48dfc46889bf923e99bc9ac834a4ba46",
            "npz:table__labels__end.npy": "fdee2f2368bf2af9c942f32cce9d982e48dfc46889bf923e99bc9ac834a4ba46",
            "npz:table__labels__label.npy": "2756d2200a5e816e383a397473937a1aec034bc42e52c288f6f8d3c0c2f73785",
            "npz:order": "9e908c6ca424397bfd48a33f7af476986b2852f4d428c70f6ba7b83d5254f717",
        },
    ),
}


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def staged_digests(videos: VideoStore, labels: LabelStore) -> dict[str, str]:
    """Digests of the table docs and of every ``table__*`` npz member."""
    arrays: dict[str, np.ndarray] = {}
    docs = {
        "videos": videos.to_arrays(arrays, "table__videos__"),
        "labels": labels.to_arrays(arrays, "table__labels__"),
    }
    buffer = io.BytesIO()
    np.savez(buffer, **arrays)
    digests = {f"doc:{name}": _digest(json.dumps(doc).encode()) for name, doc in docs.items()}
    with zipfile.ZipFile(io.BytesIO(buffer.getvalue())) as bundle:
        for member in bundle.namelist():
            digests[f"npz:{member}"] = _digest(bundle.read(member))
        digests["npz:order"] = _digest("\n".join(bundle.namelist()).encode())
    return digests


@pytest.mark.parametrize("case", sorted(EXPECTED))
def test_staged_tables_match_recorded_digests(case):
    build, expected = EXPECTED[case]
    assert staged_digests(*build()) == expected
