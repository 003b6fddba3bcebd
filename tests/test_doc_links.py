"""Every relative link and anchor in README.md and docs/*.md resolves.

External links (``http(s)://``, ``mailto:``) are skipped -- the check must
not depend on the network -- but every relative target must name an
existing file, and every fragment (``file.md#section`` or in-page
``#section``) must match a heading anchor in the target document, using
GitHub's slug rules (lowercase, punctuation stripped, spaces to hyphens,
``-N`` suffixes for duplicates).  ``make docs-check`` runs this file.
"""

import re
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[1]

#: Inline markdown link: ``[text](target)``.  Images (``![alt](...)``) match
#: too via the optional bang; both kinds must resolve.
_LINK = re.compile(r"!?\[[^\]]*\]\(([^)\s]+)(?:\s+\"[^\"]*\")?\)")
_HEADING = re.compile(r"^(#{1,6})\s+(.*?)\s*#*\s*$")
_EXTERNAL = ("http://", "https://", "mailto:", "ftp://")
#: Markup stripped before slugification: a code span keeps its text
#: verbatim (group 2); outside one, ``*`` and a ``_`` that is not inside a
#: word are emphasis.
_MARKUP = re.compile(r"(`+)(.*?)\1|\*|(?<!\w)_+|_+(?!\w)")
#: Characters GitHub drops from heading anchors.
_SLUG_DROP = re.compile(r"[^\w\- ]")


def github_slug(heading):
    """The anchor GitHub generates for one heading (before deduplication)."""
    text = _MARKUP.sub(lambda markup: markup.group(2) or "", heading.strip())
    # Inline links inside headings anchor on their text, not their target.
    text = re.sub(r"\[([^\]]*)\]\([^)]*\)", r"\1", text)
    text = _SLUG_DROP.sub("", text.lower())
    return text.replace(" ", "-")


def _unfenced_lines(markdown):
    """``(line_number, line)`` for every line outside a code fence."""
    in_fence = False
    for lineno, line in enumerate(markdown.splitlines(), start=1):
        if line.lstrip().startswith(("```", "~~~")):
            in_fence = not in_fence
        elif not in_fence:
            yield lineno, line


def heading_anchors(markdown):
    """All heading anchors of a document, duplicate-suffixed like GitHub."""
    anchors = []
    seen = {}
    for _, line in _unfenced_lines(markdown):
        match = _HEADING.match(line)
        if match is None:
            continue
        slug = github_slug(match.group(2))
        count = seen.get(slug, 0)
        seen[slug] = count + 1
        anchors.append(slug if count == 0 else f"{slug}-{count}")
    return anchors


def doc_files(root):
    """The documents the check covers: README.md plus docs/*.md."""
    readme = root / "README.md"
    return ([readme] if readme.is_file() else []) + sorted(root.glob("docs/*.md"))


def check_docs(root):
    """Validate every relative link/anchor; returns ``file:line: message``."""
    root = root.resolve()
    anchors = {}
    problems = []
    for doc in doc_files(root):
        rel_doc = doc.relative_to(root)
        for lineno, line in _unfenced_lines(doc.read_text(encoding="utf-8")):
            for target in _LINK.findall(line):
                if target.startswith(_EXTERNAL):
                    continue
                path_part, _, fragment = target.partition("#")
                resolved = (doc.parent / path_part).resolve() if path_part else doc
                if not resolved.exists():
                    problems.append(
                        f"{rel_doc}:{lineno}: broken link {target!r} "
                        f"({path_part} does not exist)"
                    )
                    continue
                # Anchors into non-markdown targets (source files) are line
                # references GitHub resolves; nothing to validate.
                md = resolved.is_file() and resolved.suffix.lower() == ".md"
                if not (fragment and md):
                    continue
                if resolved not in anchors:
                    anchors[resolved] = heading_anchors(
                        resolved.read_text(encoding="utf-8")
                    )
                if fragment not in anchors[resolved]:
                    problems.append(
                        f"{rel_doc}:{lineno}: broken anchor {target!r} "
                        f"(no heading slugs to #{fragment} in "
                        f"{resolved.relative_to(root)})"
                    )
    return problems


def test_repository_tree_is_clean():
    """The real README + docs must have no broken link or anchor."""
    assert doc_files(REPO_ROOT)
    assert check_docs(REPO_ROOT) == []


class TestSlugs:
    def test_basic_heading(self):
        assert github_slug("The write path") == "the-write-path"

    def test_punctuation_dropped(self):
        assert github_slug("Writes, quorums & churn") == "writes-quorums--churn"

    def test_markup_stripped(self):
        assert github_slug("`code` and *emphasis*") == "code-and-emphasis"

    @pytest.mark.parametrize(
        "heading, slug",
        [
            ("Hash order and `__all__`", "hash-order-and-__all__"),
            ("_emph_ word", "emph-word"),
            ("The run_experiment call", "the-run_experiment-call"),
        ],
        ids=["in a code span", "emphasis", "inside a word"],
    )
    def test_underscores(self, heading, slug):
        assert github_slug(heading) == slug

    def test_inline_link_anchors_on_text(self):
        assert github_slug("See [the docs](docs/X.md)") == "see-the-docs"

    def test_duplicates_suffixed(self):
        text = "# Setup\n\n## Setup\n\n### Setup\n"
        assert heading_anchors(text) == ["setup", "setup-1", "setup-2"]

    def test_hyphens_and_digits_kept(self):
        assert github_slug("Figs 4-7: tail latency") == "figs-4-7-tail-latency"

    def test_closing_hashes_are_not_part_of_the_heading(self):
        assert heading_anchors("## Setup ##\n") == ["setup"]

    def test_fenced_headings_ignored(self):
        text = "# Real\n\n```\n# not a heading\n```\n\n## Also real\n"
        assert heading_anchors(text) == ["real", "also-real"]


def _tree(tmp_path, readme, docs=None):
    """Build a minimal doc tree: README.md plus optional docs/*.md."""
    (tmp_path / "README.md").write_text(readme, encoding="utf-8")
    if docs:
        docs_dir = tmp_path / "docs"
        docs_dir.mkdir()
        for name, text in docs.items():
            (docs_dir / name).write_text(text, encoding="utf-8")
    return tmp_path


#: The doc set every table case below links into.
DOCS = {"A.md": "# A\n\n## A\n\nBack to [readme](../README.md#top).\n", "x.py": ""}


class TestCheckDocs:
    @pytest.mark.parametrize(
        "readme",
        [
            "[guide](docs/A.md#a) [self](#top)\n",
            "[a](https://example.com/x#y) [b](mailto:x@y.z)\n",
            "```\n[broken](nowhere.md)\n```\n",
            "~~~\n[broken](nowhere.md)\n~~~\n",
            "[line ref](docs/x.py#L10)\n",
            '[guide](docs/A.md#a "The guide")\n',
            "[docs](docs/)\n",
            "[second](docs/A.md#a-1)\n",
        ],
        ids=["valid tree", "external", "code fence", "tilde fence",
             "fragment into source file", "link title", "directory",
             "repeated heading"],
    )
    def test_clean_link_passes(self, tmp_path, readme):
        assert check_docs(_tree(tmp_path, "# Top\n\n" + readme, DOCS)) == []

    @pytest.mark.parametrize(
        "readme, problem",
        [
            ("[gone](docs/MISSING.md)\n", "broken link 'docs/MISSING.md'"),
            ("[guide](docs/A.md#nope)\n", "broken anchor 'docs/A.md#nope'"),
            ("![diagram](img/gone.png)\n", "broken link 'img/gone.png'"),
            ("[up](#top) [down](#bottom)\n", "broken anchor '#bottom'"),
            ("[third](docs/A.md#a-2)\n", "broken anchor 'docs/A.md#a-2'"),
        ],
        ids=["file", "anchor", "image", "in-page anchor", "repeated heading"],
    )
    def test_broken_link_flagged_with_location(self, tmp_path, readme, problem):
        [found] = check_docs(_tree(tmp_path, "# Top\n\n" + readme, DOCS))
        assert found.startswith("README.md:3: " + problem)

    def test_covers_readme_plus_docs(self, tmp_path):
        root = _tree(
            tmp_path,
            "# Top\n",
            {"B.md": "# B\n", "A.md": "# A\n[bad](gone.md)\n"},
        )
        names = [p.name for p in doc_files(root)]
        assert names == ["README.md", "A.md", "B.md"]
        assert check_docs(root)  # the break in docs/A.md is found

    def test_problems_follow_document_order(self, tmp_path):
        root = _tree(
            tmp_path,
            "# Top\n\n[a](gone-a.md)\n\n[b](gone-b.md)\n",
            {"B.md": "[c](gone-c.md)\n", "A.md": "[d](gone-d.md)\n"},
        )
        locations = [problem.split(": ")[0] for problem in check_docs(root)]
        assert locations == [
            "README.md:3", "README.md:5", "docs/A.md:1", "docs/B.md:1"
        ]
