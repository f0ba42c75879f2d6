package repro

import (
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// mdLinkRe matches inline markdown links [text](target). Reference-style
// links are not used in this repository.
var mdLinkRe = regexp.MustCompile(`\]\(([^)\s]+)\)`)

// mdAnchorRe matches heading lines, from which GitHub derives anchors.
var mdAnchorRe = regexp.MustCompile(`(?m)^#{1,6}\s+(.+)$`)

// githubAnchor reproduces GitHub's heading → anchor slug rule closely
// enough for the headings used here: lowercase, punctuation stripped,
// spaces to hyphens.
func githubAnchor(heading string) string {
	h := strings.ToLower(strings.TrimSpace(heading))
	h = regexp.MustCompile("[`*_]").ReplaceAllString(h, "")
	var b strings.Builder
	for _, r := range h {
		switch {
		case r >= 'a' && r <= 'z' || r >= '0' && r <= '9':
			b.WriteRune(r)
		case r == ' ' || r == '-':
			b.WriteRune('-')
		}
	}
	return b.String()
}

// collectAnchors returns the set of heading anchors a markdown file defines.
func collectAnchors(t *testing.T, path string) map[string]bool {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	anchors := map[string]bool{}
	for _, m := range mdAnchorRe.FindAllStringSubmatch(string(raw), -1) {
		anchors[githubAnchor(m[1])] = true
	}
	return anchors
}

// TestDocLinks walks every markdown file in the repository and verifies
// each intra-repo link: the target file must exist, and a #fragment must
// match a heading in the target. External (http/https/mailto) links are
// not checked — CI must not depend on the network.
func TestDocLinks(t *testing.T) {
	var mdFiles []string
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			// Skip VCS internals and build output.
			if d.Name() == ".git" || d.Name() == "testdata" {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(path, ".md") {
			mdFiles = append(mdFiles, path)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(mdFiles) == 0 {
		t.Fatal("no markdown files found — is the test running from the repo root?")
	}

	var broken []string
	for _, md := range mdFiles {
		raw, err := os.ReadFile(md)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range mdLinkRe.FindAllStringSubmatch(string(raw), -1) {
			target := m[1]
			if strings.HasPrefix(target, "http://") || strings.HasPrefix(target, "https://") ||
				strings.HasPrefix(target, "mailto:") {
				continue
			}
			file, frag, _ := strings.Cut(target, "#")
			resolved := md
			if file != "" {
				resolved = filepath.Join(filepath.Dir(md), file)
				if info, err := os.Stat(resolved); err != nil {
					broken = append(broken, fmt.Sprintf("%s: link target %q does not exist", md, target))
					continue
				} else if info.IsDir() && frag != "" {
					broken = append(broken, fmt.Sprintf("%s: link %q has a fragment on a directory", md, target))
					continue
				}
			}
			if frag != "" && strings.HasSuffix(resolved, ".md") {
				if !collectAnchors(t, resolved)[frag] {
					broken = append(broken, fmt.Sprintf("%s: link %q: no heading with anchor %q in %s", md, target, frag, resolved))
				}
			}
		}
	}
	for _, b := range broken {
		t.Error(b)
	}
	if len(broken) > 0 {
		t.Logf("checked %d markdown files", len(mdFiles))
	}
}

// docTestRe matches a cited test, benchmark or fuzz function name.
var docTestRe = regexp.MustCompile(`\b(?:Test|Benchmark|Fuzz)[A-Z0-9_]\w*`)

// goTestFuncRe matches the declaration of a test, benchmark or fuzz
// function.
var goTestFuncRe = regexp.MustCompile(`(?m)^func ((?:Test|Benchmark|Fuzz)\w*)\(`)

// TestDocTestNames fails when a reference document names a Test*,
// Benchmark* or Fuzz* function that no .go file in the repository defines —
// a citation left behind when the test was deleted or renamed. The change
// log and the roadmap record history and plans, so they are not checked.
func TestDocTestNames(t *testing.T) {
	defined := map[string]bool{}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			// Skip VCS internals, fixtures and the bench's build output.
			if d.Name() == ".git" || d.Name() == "testdata" || d.Name() == ".bench_build" {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(path, ".go") {
			raw, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			for _, m := range goTestFuncRe.FindAllStringSubmatch(string(raw), -1) {
				defined[m[1]] = true
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	docs, err := filepath.Glob("docs/*.md")
	if err != nil {
		t.Fatal(err)
	}
	docs = append(docs, "README.md", "examples/README.md", "bench/README.md")
	for _, doc := range docs {
		raw, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(raw), "\n") {
			for _, name := range docTestRe.FindAllString(line, -1) {
				if !defined[name] {
					t.Errorf("%s:%d cites %s, which no .go file defines", doc, i+1, name)
				}
			}
		}
	}
}
