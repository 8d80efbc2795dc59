package pds_test

import (
	"errors"
	"io/fs"
	"os"
	"os/exec"
	"regexp"
	"strings"
	"testing"
)

var (
	sectionRef     = regexp.MustCompile(`§\s?([0-9]+)`)
	sectionHeading = regexp.MustCompile(`(?m)^## ([0-9]+)\.`)
)

// Every §n in the repository's tracked Go and Markdown files names a
// "## n." heading of DESIGN.md, so a renumbered or deleted section cannot
// leave a reference dangling. The files are those git tracks, so an
// untracked note in the working tree is not checked; outside a git work
// tree there is no tracked set, and the test skips.
func TestSectionReferencesResolve(t *testing.T) {
	design, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	sections := map[string]bool{}
	for _, m := range sectionHeading.FindAllStringSubmatch(string(design), -1) {
		sections[m[1]] = true
	}
	if len(sections) == 0 {
		t.Fatal("DESIGN.md has no numbered sections")
	}
	out, err := exec.Command("git", "ls-files", "-z", "--", "*.go", "*.md").Output()
	if err != nil {
		t.Skipf("no tracked files to check: git ls-files: %v", err)
	}
	refs := 0
	for _, path := range strings.Split(strings.TrimRight(string(out), "\x00"), "\x00") {
		b, err := os.ReadFile(path)
		if errors.Is(err, fs.ErrNotExist) {
			continue // deleted in the working tree
		}
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(b), "\n") {
			for _, m := range sectionRef.FindAllStringSubmatch(line, -1) {
				refs++
				if !sections[m[1]] {
					t.Errorf("%s:%d: §%s names no section of DESIGN.md", path, i+1, m[1])
				}
			}
		}
	}
	if refs == 0 {
		t.Fatal("found no § reference at all: the listing read nothing")
	}
}
