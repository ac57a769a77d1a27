"""Rendering helpers: bounded, identifiable expression strings."""

from __future__ import annotations

import hashlib

from laxweyl.reports import truncate


def test_short_strings_pass_unchanged():
    text = "u_xt" * 50
    assert len(text) == 200
    assert truncate(text) == text


def test_long_strings_keep_a_prefix_length_and_hash():
    text = "u_yy" * 50 + "!"
    digest = hashlib.sha256(text.encode("utf-8")).hexdigest()[:12]
    assert truncate(text) == "%s... [201 chars, sha256/%s]" % (text[:200],
                                                             digest)
    assert len(digest) == 12
