package experiments

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestDocTablesMatchOutput: every row of the fenced table under an
// "## En" heading of EXPERIMENTS.md must appear in the En block of the
// committed experiments_output.txt, so the prose cannot quote numbers the
// tables no longer print. Rows are compared field by field: column
// padding counts bytes, not runes, so a cell like "sub-µs" pads
// differently in the two files. Rule lines of dashes are skipped.
func TestDocTablesMatchOutput(t *testing.T) {
	read := func(name string) []string {
		b, err := os.ReadFile(filepath.Join("..", "..", name))
		if err != nil {
			t.Fatal(err)
		}
		return strings.Split(string(b), "\n")
	}
	row := func(line string) string { return strings.Join(strings.Fields(line), " ") }

	tables := map[string]map[string]bool{}
	id := ""
	for _, line := range read("experiments_output.txt") {
		if rest, ok := strings.CutPrefix(line, "== "); ok {
			id, _, _ = strings.Cut(rest, ":")
			tables[id] = map[string]bool{}
		} else if id != "" {
			tables[id][row(line)] = true
		}
	}

	id, fenced, rows := "", false, 0
	for i, line := range read("EXPERIMENTS.md") {
		switch {
		case strings.HasPrefix(line, "## "):
			id = ""
			if f := strings.Fields(line); len(f) > 1 && len(f[1]) > 1 && f[1][0] == 'E' && strings.Trim(f[1][1:], "0123456789") == "" {
				id = f[1]
			}
		case strings.HasPrefix(line, "```"):
			fenced = !fenced
		case fenced && id != "" && strings.Trim(line, "- ") != "":
			rows++
			if tables[id] == nil {
				t.Fatalf("EXPERIMENTS.md:%d: experiments_output.txt has no %s block", i+1, id)
			}
			if !tables[id][row(line)] {
				t.Errorf("EXPERIMENTS.md:%d: %s row not in experiments_output.txt: %s", i+1, id, row(line))
			}
		}
	}
	if rows < 100 {
		t.Fatalf("read only %d table rows from EXPERIMENTS.md; the headings or fences moved", rows)
	}
}
