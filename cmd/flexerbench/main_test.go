package main

import (
	"os"
	"regexp"
	"strings"
	"testing"

	"github.com/flexer-sched/flexer/internal/experiments"
)

// TestDocListsAllExperiments keeps the package documentation honest:
// the "Experiments:" sentence of main.go's doc comment must list
// exactly the registry's names, in its order, then "all". The flag help
// and the dispatch are built from experiments.Names() directly, so the
// doc comment is the only hand-kept list there is.
func TestDocListsAllExperiments(t *testing.T) {
	src, err := os.ReadFile("main.go")
	if err != nil {
		t.Fatal(err)
	}
	doc, _, ok := strings.Cut(string(src), "\npackage main")
	if !ok {
		t.Fatal("main.go has no package declaration")
	}
	m := regexp.MustCompile(`(?s)// Experiments: (.*?)\.\n`).FindStringSubmatch(doc)
	if m == nil {
		t.Fatal("package doc has no \"Experiments: ….\" sentence")
	}
	listed := strings.Join(strings.Fields(strings.ReplaceAll(m[1], "//", " ")), " ")
	if want := strings.Join(append(experiments.Names(), "all"), ", "); listed != want {
		t.Errorf("package doc lists %q, the registry has %q", listed, want)
	}
}
