package repro

import (
	"bytes"
	"encoding/json"
	"flag"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

var updateLines = flag.Bool("update", false, "TestLineRatchet: rewrite testdata/lines.json with the tree's counts")

const linesFile = "testdata/lines.json"

// TestLineRatchet holds the tree's non-test Go and assembly line counts,
// per directory (bench/ included), to the committed testdata/lines.json and
// fails, naming the directory, on any difference: a rise must be
// acknowledged and a fall locked in, both by rewriting the file with
//
//	go test -run TestLineRatchet . -update
//
// in the change that moved the count.
func TestLineRatchet(t *testing.T) {
	got, err := countLines(".")
	if err != nil {
		t.Fatal(err)
	}
	if *updateLines {
		b, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(linesFile, append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	b, err := os.ReadFile(linesFile)
	if err != nil {
		t.Fatal(err)
	}
	var want map[string]int
	if err := json.Unmarshal(b, &want); err != nil {
		t.Fatalf("%s: %v", linesFile, err)
	}
	dirs := map[string]bool{}
	for d := range got {
		dirs[d] = true
	}
	for d := range want {
		dirs[d] = true
	}
	sorted := make([]string, 0, len(dirs))
	for d := range dirs {
		sorted = append(sorted, d)
	}
	sort.Strings(sorted)
	for _, d := range sorted {
		switch g, w := got[d], want[d]; {
		case g > w:
			t.Errorf("%s: non-test Go+asm rose from %d to %d lines; acknowledge it with -update", d, w, g)
		case g < w:
			t.Errorf("%s: non-test Go+asm fell from %d to %d lines; lock it in with -update", d, w, g)
		}
	}
}

// countLines counts the lines of the non-test .go and .s files under root,
// keyed by slash-separated directory; hidden and testdata directories are
// skipped.
func countLines(root string) (map[string]int, error) {
	counts := map[string]int{}
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if path != root && (strings.HasPrefix(name, ".") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !(strings.HasSuffix(name, ".go") && !strings.HasSuffix(name, "_test.go")) && !strings.HasSuffix(name, ".s") {
			return nil
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		counts[filepath.ToSlash(filepath.Dir(path))] += bytes.Count(b, []byte{'\n'})
		return nil
	})
	return counts, err
}
