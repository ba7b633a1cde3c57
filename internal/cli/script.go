package cli

import (
	"fmt"
	"strings"
)

// EditOp is one step of a -relink edit script.
type EditOp struct {
	Verb string // "patch", "search", or "tune"
	TU   string // patch only: name of the unit to replace
	Path string // patch only: file holding the unit's new contents
}

// ParseEditScript parses the textual format -relink replays, one
// operation per line:
//
//	# comment (blank lines are skipped too)
//	patch <tuName> <path>
//	search
//	tune
//
// patch swaps one unit's contents; search and tune run a query over the
// current unit set, in any order. Errors name the offending line.
func ParseEditScript(data []byte) ([]EditOp, error) {
	var ops []EditOp
	for ln, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		switch fields[0] {
		case "patch":
			if len(fields) != 3 {
				return nil, fmt.Errorf("edit script line %d: want \"patch <tuName> <path>\", got %q", ln+1, line)
			}
			ops = append(ops, EditOp{Verb: "patch", TU: fields[1], Path: fields[2]})
		case "search", "tune":
			if len(fields) != 1 {
				return nil, fmt.Errorf("edit script line %d: %q takes no arguments", ln+1, fields[0])
			}
			ops = append(ops, EditOp{Verb: fields[0]})
		default:
			return nil, fmt.Errorf("edit script line %d: unknown verb %q (want patch, search, or tune)", ln+1, fields[0])
		}
	}
	if len(ops) == 0 {
		return nil, fmt.Errorf("edit script is empty")
	}
	return ops, nil
}
