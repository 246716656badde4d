// Package flagdoc holds a binary's command line and the markdown that
// documents it together: each of eyeorg-server and loadgen builds its
// flag.FlagSet in a newFlags function its main also uses, and a
// TestDocsFlagsRegistered in its package hands that set to Check. The docs cannot name a flag that does not exist, drop one that
// does, or quote a default the binary does not have.
package flagdoc

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
)

// tables says where each binary's flag table is: the markdown file,
// relative to the repository root, and the heading the table follows.
var tables = map[string]struct{ file, heading string }{
	"eyeorg-server": {"docs/OPERATIONS.md", "## eyeorg-server flags"},
	"loadgen":       {"README.md", "## The load generator"},
}

// proseFiles are read for flag names outside the tables.
var proseFiles = []string{"README.md", "docs/OPERATIONS.md"}

// otherFlags are the flags the prose names that belong to none of the
// two binaries: go test's, and cmd/campaign's and cmd/experiments'.
var otherFlags = map[string]bool{"race": true, "workers": true}

var (
	tableRow = regexp.MustCompile("^\\| `-([a-z][a-z0-9-]*)` \\| ([^|]*) \\|")
	codeSpan = regexp.MustCompile("`[^`\n]*`")
	flagWord = regexp.MustCompile(`^-([a-z][a-z0-9-]*)$`)
)

// Check compares fs — named for its binary — with the documentation
// under root, the repository's top directory, and returns one line per
// disagreement:
//
//   - every flag of fs has a row in its binary's table whose default
//     column is the flag's default (`off` for a false switch, *(empty)* or
//     *(required)* for an empty string), and every row is a flag of fs;
//   - every `-flag` in a code span of README.md or docs/OPERATIONS.md is a
//     row of one of the two tables (each held to its binary by that
//     binary's test) or one of otherFlags;
//   - in a fenced block, a command line that runs the binary passes only
//     flags of fs.
func Check(fs *flag.FlagSet, root string) []string {
	var problems []string
	documented := map[string]bool{} // every table's rows
	for binary, at := range tables {
		rows, err := readTable(filepath.Join(root, at.file), at.heading)
		if err != nil {
			return []string{err.Error()}
		}
		for name, def := range rows {
			documented[name] = true
			if binary != fs.Name() {
				continue
			}
			f := fs.Lookup(name)
			if f == nil {
				problems = append(problems, fmt.Sprintf("%s documents -%s, which %s does not define", at.file, name, binary))
			} else if def != f.DefValue {
				problems = append(problems, fmt.Sprintf("%s gives -%s the default %q, %s has %q", at.file, name, def, binary, f.DefValue))
			}
		}
		if binary == fs.Name() {
			fs.VisitAll(func(f *flag.Flag) {
				if _, ok := rows[f.Name]; !ok {
					problems = append(problems, fmt.Sprintf("%s -%s has no row under %q in %s", binary, f.Name, at.heading, at.file))
				}
			})
		}
	}
	for _, file := range proseFiles {
		body, err := os.ReadFile(filepath.Join(root, file))
		if err != nil {
			return []string{err.Error()}
		}
		prose, fenced := splitFences(string(body))
		for _, span := range codeSpan.FindAllString(prose, -1) {
			if !strings.HasPrefix(span, "`-") {
				continue
			}
			for _, word := range strings.Fields(strings.Trim(span, "`")) {
				if m := flagWord.FindStringSubmatch(word); m != nil && !documented[m[1]] && !otherFlags[m[1]] {
					problems = append(problems, fmt.Sprintf("%s names -%s, which no flag table lists", file, m[1]))
				}
			}
		}
		for _, line := range strings.Split(strings.ReplaceAll(fenced, "\\\n", " "), "\n") {
			// "eyeorg-server -addr …", "./loadgen …", "go run ./cmd/loadgen …".
			words := strings.Fields(line)
			at := slices.IndexFunc(words[:min(3, len(words))], func(w string) bool { return filepath.Base(w) == fs.Name() })
			if at < 0 {
				continue
			}
			for _, word := range words[at+1:] {
				if m := flagWord.FindStringSubmatch(word); m != nil && fs.Lookup(m[1]) == nil {
					problems = append(problems, fmt.Sprintf("%s runs %s with -%s, which it does not define", file, fs.Name(), m[1]))
				}
			}
		}
	}
	return problems
}

// readTable returns the flag table that follows heading in the markdown
// file at path: flag name → its default as flag.Flag.DefValue spells it.
func readTable(path, heading string) (map[string]string, error) {
	body, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	_, after, ok := strings.Cut(string(body), "\n"+heading+"\n")
	if !ok {
		return nil, fmt.Errorf("%s has no heading %q", path, heading)
	}
	rows := map[string]string{}
	for _, line := range strings.Split(after, "\n") {
		if strings.HasPrefix(line, "## ") {
			break
		}
		m := tableRow.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		def := strings.Trim(strings.TrimSpace(m[2]), "`")
		switch def {
		case "off":
			def = "false"
		case "*(empty)*", "*(required)*":
			def = ""
		}
		rows[m[1]] = def
	}
	if len(rows) == 0 {
		return nil, fmt.Errorf("%s: no flag rows under %q", path, heading)
	}
	return rows, nil
}

// splitFences separates a markdown document into what is outside its
// fenced code blocks and what is inside them.
func splitFences(doc string) (prose, fenced string) {
	var out [2]strings.Builder
	in := 0
	for _, line := range strings.SplitAfter(doc, "\n") {
		if strings.HasPrefix(strings.TrimSpace(line), "```") {
			in = 1 - in
			continue
		}
		out[in].WriteString(line)
	}
	return out[0].String(), out[1].String()
}
