"""Hand-built 30-image corpus for group assignment, with expected outcomes
under the baseline/v1/v2/v3 evaluation versions.

Box images use a 100x100 canvas unless noted, so area fractions are
area/10000. Expected outcomes are ("assigned", group) or
("excluded", reason string).
"""

import json
import random
from pathlib import Path

from disparity_audit import AnnotatedImage, BoxAnnotation, terms_rule
from disparity_audit.groups import parse_box_filter

VG_TERMS = {
    "groups": {
        "man": [
            "man.n.01", "male_child.n.01", "guy.n.01", "male.n.01",
            "father.n.01", "son.n.01", "brother.n.01",
        ],
        "woman": [
            "woman.n.01", "girl.n.01", "lady.n.01", "mother.n.01",
            "daughter.n.01", "sister.n.01",
        ],
    },
    "excluded_terms": {
        "man": ["father.n.01", "son.n.01"],
        "woman": ["mother.n.01", "daughter.n.01"],
    },
    "neutral_exclusion_terms": ["person.n.01", "people.n.01"],
}

COCO_TERMS = {
    "groups": {
        "man": ["man", "mans", "men", "boy", "boys", "father", "fathers",
                "son", "sons", "he", "his", "him"],
        "woman": ["woman", "womans", "women", "girl", "girls", "lady",
                  "ladies", "mother", "mothers", "daughter", "daughters",
                  "she", "her", "hers"],
    },
    "excluded_terms": {
        "man": ["father", "fathers", "son", "sons"],
        "woman": ["mother", "mothers", "daughter", "daughters"],
    },
    "neutral_exclusion_terms": ["person", "persons", "people"],
}

# Each version's box filter, in its config form.
BOX_FILTERS = {
    "baseline": {"variant": "none"},
    "v1": {"variant": "min_area_pixels", "threshold": 600},
    "v2": {"variant": "relative_area", "use_min": 0.05, "ignore_max": 0.02},
    "v3": {"variant": "relative_area", "use_min": 0.05, "ignore_max": 0.02},
}

VERSIONS = ("baseline", "v1", "v2", "v3")


def box_rule(version: str):
    return terms_rule(
        VG_TERMS, "boxes", exclusions=version == "v3",
        box_filter=parse_box_filter(BOX_FILTERS[version]),
    )


def caption_rule(version: str):
    return terms_rule(COCO_TERMS, "captions", exclusions=version == "v3")


def _img(image_id, boxes=(), captions=(), size=(100, 100)):
    return AnnotatedImage(
        image_id=image_id,
        width=size[0],
        height=size[1],
        boxes=tuple(BoxAnnotation(raw_label=l, x=x, y=y, w=w, h=h) for l, x, y, w, h in boxes),
        captions=tuple(captions),
    )


MAN = ("assigned", "man")
WOMAN = ("assigned", "woman")
MULTI = ("excluded", "MultipleGroups")
NONE_ = ("excluded", "NoGroupEvidence")
SMALL = ("excluded", "BoxTooSmall")
MID = ("excluded", "MidSizeAmbiguous")
NEUTRAL = ("excluded", "NeutralTermPresent")


def _same(outcome):
    return {v: outcome for v in VERSIONS}


# (image, {version: expected outcome}); box evidence first, captions after.
BOX_CASES = [
    (_img("b01", boxes=[("man.n.01", 0, 0, 30, 30)]), _same(MAN)),
    (_img("b02", boxes=[("woman.n.01", 0, 0, 80, 10)]), _same(WOMAN)),
    (_img("b03", boxes=[("man.n.01", 0, 0, 20, 20)]),
     {"baseline": MAN, "v1": SMALL, "v2": MID, "v3": MID}),
    (_img("b04", boxes=[("woman.n.01", 0, 0, 10, 10)]),
     {"baseline": WOMAN, "v1": SMALL, "v2": SMALL, "v3": SMALL}),
    (_img("b05", boxes=[("man.n.01", 0, 0, 30, 30), ("woman.n.01", 0, 40, 80, 10)]),
     _same(MULTI)),
    (_img("b06", boxes=[("man.n.01", 0, 0, 30, 30), ("woman.n.01", 0, 40, 10, 10)]),
     {"baseline": MULTI, "v1": MAN, "v2": MAN, "v3": MAN}),
    (_img("b07", boxes=[("mother.n.01", 0, 0, 10, 100)]),
     {"baseline": WOMAN, "v1": WOMAN, "v2": WOMAN, "v3": NONE_}),
    (_img("b08", boxes=[("mother.n.01", 0, 0, 10, 100), ("man.n.01", 20, 0, 30, 30)]),
     {"baseline": MULTI, "v1": MULTI, "v2": MULTI, "v3": MAN}),
    (_img("b09", boxes=[("dog.n.01", 0, 0, 40, 50)]), _same(NONE_)),
    (_img("b10", boxes=[("man.n.01", 0, 0, 30, 20)]), _same(MAN)),
    (_img("b11", boxes=[("man.n.01", 0, 0, 25, 20)]),
     {"baseline": MAN, "v1": SMALL, "v2": MAN, "v3": MAN}),
    (_img("b12", boxes=[("woman.n.01", 0, 0, 20, 10)]),
     {"baseline": WOMAN, "v1": SMALL, "v2": MID, "v3": MID}),
    (_img("b13", boxes=[("man.n.01", 0, 0, 40, 20), ("man.n.01", 0, 30, 30, 10)]),
     {"baseline": MAN, "v1": MAN, "v2": MID, "v3": MID}),
    (_img("b14", boxes=[("man.n.01", 0, 0, 40, 20), ("woman.n.01", 0, 30, 30, 10)]),
     {"baseline": MULTI, "v1": MAN, "v2": MID, "v3": MID}),
    (_img("b15", boxes=[("woman.n.01", 0, 0, 30, 20), ("mother.n.01", 40, 0, 10, 100)]),
     _same(WOMAN)),
    (_img("b16", boxes=[("father.n.01", 0, 0, 35, 20), ("woman.n.01", 0, 30, 30, 20)]),
     {"baseline": MULTI, "v1": MULTI, "v2": MULTI, "v3": WOMAN}),
    (_img("b17", boxes=[("man.n.01", 0, 0, 30, 20)], size=(200, 100)),
     {"baseline": MAN, "v1": MAN, "v2": MID, "v3": MID}),
    (_img("b18", boxes=[("woman.n.01", 0, 0, 40, 30), ("woman.n.01", 50, 0, 35, 20)], size=(200, 100)),
     {"baseline": WOMAN, "v1": WOMAN, "v2": MID, "v3": MID}),
    (_img("b19", captions=["a scenic view"]), _same(NONE_)),
    (_img("b20", boxes=[("man.n.01", 0, 0, 20, 20), ("woman.n.01", 0, 30, 20, 20)]),
     {"baseline": MULTI, "v1": SMALL, "v2": MID, "v3": MID}),
]

CAPTION_CASES = [
    (_img("c01", captions=["a man riding his bike"]), _same(MAN)),
    (_img("c02", captions=["a woman and a boy at the park"]), _same(MULTI)),
    (_img("c03", captions=["two people at a market"]), _same(NEUTRAL)),
    (_img("c04", captions=["a person walking with her dog"]), _same(NEUTRAL)),
    (_img("c05", captions=["the mother with a stroller"]),
     {"baseline": WOMAN, "v1": WOMAN, "v2": WOMAN, "v3": NONE_}),
    (_img("c06", captions=["a scenic mountain view"]), _same(NONE_)),
    (_img("c07", captions=["his daughter laughs"]),
     {"baseline": MULTI, "v1": MULTI, "v2": MULTI, "v3": MAN}),
    (_img("c08", captions=["the father and his son fish"]), _same(MAN)),
    (_img("c09", captions=["mothers and daughters at the fair"]),
     {"baseline": WOMAN, "v1": WOMAN, "v2": WOMAN, "v3": NONE_}),
    (_img("c10", captions=["a womanly silhouette"]), _same(NONE_)),
]

assert len(BOX_CASES) + len(CAPTION_CASES) == 30


CONCEPTS = ("c1", "c2", "c3")


def write_corpus(directory: Path, method: str) -> Path:
    """The corpus as run inputs in ``directory``, for the ``boxes`` or
    ``captions`` method: annotations (each image labelled with one or two of
    ``CONCEPTS``), synthetic scores for every image and concept, the
    method's terms file and a run config. Returns the config's path."""
    rng = random.Random(8)
    with (directory / "annotations.jsonl").open("w", encoding="utf-8") as f:
        for k, (image, _) in enumerate(BOX_CASES + CAPTION_CASES):
            labels = [CONCEPTS[k % 3]] + ([CONCEPTS[(k + 1) % 3]] if k % 4 == 0 else [])
            f.write(json.dumps({
                "image_id": image.image_id, "width": image.width, "height": image.height,
                "boxes": [{"label": b.raw_label, "x": b.x, "y": b.y, "w": b.w, "h": b.h}
                          for b in image.boxes],
                "captions": list(image.captions), "labels": labels,
            }) + "\n")
    with (directory / "predictions.jsonl").open("w", encoding="utf-8") as f:
        for image, _ in BOX_CASES + CAPTION_CASES:
            scores = {c: round(rng.random(), 4) for c in CONCEPTS}
            f.write(json.dumps({"image_id": image.image_id, "scores": scores}) + "\n")
    terms = VG_TERMS if method == "boxes" else COCO_TERMS
    (directory / "terms.json").write_text(json.dumps(terms), encoding="utf-8")
    config = directory / "run.json"
    config.write_text(json.dumps({
        "annotations": "annotations.jsonl", "predictions": "predictions.jsonl",
        "group_method": method, "terms": "terms.json",
        "metrics": ["ap", "tpr", "hit_rate"], "k": 2,
        "sampling": {"min_per_group": 2, "bootstraps": 20, "ratio": [1, 2]},
        "output_dir": "out",
    }), encoding="utf-8")
    return config


def expected_assignments(method: str, version: str) -> dict[str, tuple[str, str]]:
    """Each corpus image's outcome under ``method``: its expected outcome in
    that method's cases, and NoGroupEvidence for the other method's images
    (no box image has a caption with a group term, no caption image a box)."""
    own = BOX_CASES if method == "boxes" else CAPTION_CASES
    out = {image.image_id: NONE_ for image, _ in BOX_CASES + CAPTION_CASES}
    out.update({image.image_id: expected[version] for image, expected in own})
    return out
