package congestlb_test

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// citedDoc matches a document name the sources point readers at: an
// upper-case Markdown file (DESIGN.md, README.md), optionally behind a
// directory, or a page under docs/.
var citedDoc = regexp.MustCompile(`(?:[a-z0-9_]+/)*[A-Z][A-Z0-9_]*\.md|docs/[a-z0-9_-]+\.md`)

// TestCitedDocumentsExist: every document a .go file, README.md or a
// docs/ page names exists, at the repository root or next to the file
// that names it. CHANGES.md and ROADMAP.md are history: they may name
// what is gone, and are not scanned.
func TestCitedDocumentsExist(t *testing.T) {
	sources := []string{"README.md"}
	docs, err := filepath.Glob("docs/*.md")
	if err != nil {
		t.Fatal(err)
	}
	sources = append(sources, docs...)
	err = filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != "." && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && strings.HasSuffix(path, ".go") {
			sources = append(sources, path)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, src := range sources {
		data, err := os.ReadFile(src)
		if err != nil {
			t.Fatal(err)
		}
		for _, doc := range citedDoc.FindAllString(string(data), -1) {
			if !exists(doc) && !exists(filepath.Join(filepath.Dir(src), doc)) {
				t.Errorf("%s cites %s, which does not exist", src, doc)
			}
		}
	}
}

func exists(path string) bool {
	_, err := os.Stat(path)
	return err == nil
}
