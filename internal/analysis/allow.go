package analysis

import (
	"go/ast"
	"go/token"
	"strconv"
	"strings"
)

// allowPrefix starts an allow directive, a comment of the form
//
//	//vcloudlint:allow <analyzer>[,<analyzer>...] <reason>
//
// A directive suppresses diagnostics from the named analyzers on its own
// line and on the line immediately below it, so it works both as a
// trailing comment and as a standalone comment above the offending
// statement. The reason is mandatory: an allowlist entry without a
// recorded justification is itself a lint error.
const allowPrefix = "//vcloudlint:allow"

// allowEntry tracks one (directive, analyzer name) pair so the suite can
// audit directives that no longer suppress anything.
type allowEntry struct {
	pos  token.Pos
	name string
	used bool
}

// AllowSet indexes every well-formed allow directive in a set of files and
// remembers the malformed ones so the driver can report them. Lookups via
// Allowed mark the matched entry as used; Stale reports the rest.
type AllowSet struct {
	// byLine maps "filename:line" to the entries allowed there; the two
	// lines a directive covers share the same entries, so a hit on either
	// marks the directive used.
	byLine map[string]map[string]*allowEntry
	// entries keeps every (directive, analyzer) pair in source order.
	entries []*allowEntry
	// Malformed collects directives missing an analyzer name or a reason.
	Malformed []Diagnostic
}

// ParseAllows scans the comments of files for vcloudlint:allow directives.
func ParseAllows(fset *token.FileSet, files []*ast.File) *AllowSet {
	as := &AllowSet{byLine: make(map[string]map[string]*allowEntry)}
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if !strings.HasPrefix(c.Text, allowPrefix) {
					continue
				}
				rest := c.Text[len(allowPrefix):]
				if rest != "" && rest[0] != ' ' && rest[0] != '\t' {
					continue // e.g. //vcloudlint:allowance — not ours
				}
				names, reason := splitDirective(rest)
				if len(names) == 0 || reason == "" {
					as.Malformed = append(as.Malformed, Diagnostic{
						Pos:      c.Pos(),
						Analyzer: "allow",
						Message:  "malformed directive: want //vcloudlint:allow <analyzer>[,<analyzer>] <reason>",
					})
					continue
				}
				pos := fset.Position(c.Pos())
				for _, n := range names {
					e := &allowEntry{pos: c.Pos(), name: n}
					as.entries = append(as.entries, e)
					for _, line := range []int{pos.Line, pos.Line + 1} {
						key := lineKey(pos.Filename, line)
						if as.byLine[key] == nil {
							as.byLine[key] = make(map[string]*allowEntry)
						}
						as.byLine[key][n] = e
					}
				}
			}
		}
	}
	return as
}

// splitDirective parses " nowallclock,nogoroutine reason text" into the
// analyzer list and the reason.
func splitDirective(rest string) (names []string, reason string) {
	fields := strings.Fields(rest)
	if len(fields) == 0 {
		return nil, ""
	}
	for _, n := range strings.Split(fields[0], ",") {
		if n != "" {
			names = append(names, n)
		}
	}
	return names, strings.Join(fields[1:], " ")
}

// Allowed reports whether a diagnostic from analyzer at pos is suppressed
// by a directive on the same line or the line above, marking the matched
// directive as earning its keep for the stale audit.
func (as *AllowSet) Allowed(fset *token.FileSet, analyzer string, pos token.Pos) bool {
	p := fset.Position(pos)
	e := as.byLine[lineKey(p.Filename, p.Line)][analyzer]
	if e == nil {
		return false
	}
	e.used = true
	return true
}

// Stale returns one diagnostic per (directive, analyzer) pair that
// suppressed nothing across every Allowed lookup made so far. Run it only
// after all analyzers have reported: a reasoned exemption that no longer
// matches a finding has rotted and must be deleted or re-justified.
func (as *AllowSet) Stale() []Diagnostic {
	var out []Diagnostic
	for _, e := range as.entries {
		if e.used {
			continue
		}
		out = append(out, Diagnostic{
			Pos:      e.pos,
			Analyzer: "allow",
			Message:  "stale directive: no " + e.name + " finding here or on the next line; delete the exemption or re-justify it",
		})
	}
	return out
}

func lineKey(file string, line int) string {
	return file + ":" + strconv.Itoa(line)
}
