package txn

import (
	"fmt"
	"strconv"
	"strings"
)

// Parse builds a transaction from the paper's compact notation, e.g.
//
//	Parse(1, "R[x2]W[x2]R[x3]W[x3]R[x4]W[x4]")
//
// yields T1 of Example 1. Item names are of the form x<N> (table 0, row
// N) or <table>:<row>. Whitespace between actions is ignored. An action
// is R (read), W (write), I (insert) or U (read-modify-write).
func Parse(id int, s string) (*Transaction, error) {
	t := &Transaction{}
	if err := ParseInto(t, id, s); err != nil {
		return nil, err
	}
	return t, nil
}

// ParseInto parses s into t, resetting every field first. The Ops
// slice and cached access-set backing arrays are reused when capacity
// allows, so a pooled Transaction parses without allocating. On error
// t is left in the reset (empty) state.
func ParseInto(t *Transaction, id int, s string) error {
	ops := t.Ops[:0]
	if n := strings.Count(s, "["); cap(ops) < n {
		ops = make([]Op, 0, n)
	}
	*t = Transaction{ID: id, Ops: ops, readSet: t.readSet[:0], writeSet: t.writeSet[:0], accessSet: t.accessSet[:0]}
	parsed, err := ParseOps(ops, s)
	if err != nil {
		return t.parseFail("%w", err)
	}
	t.Ops = parsed
	return nil
}

// ParseOps parses the compact notation in s, appending the operations
// to dst (which may be nil) and returning the extended slice — the
// string-to-ops half of ParseInto, usable without a Transaction (the
// binary wire encoder converts notation this way).
func ParseOps(dst []Op, s string) ([]Op, error) {
	rest := strings.TrimSpace(s)
	for rest != "" {
		if len(rest) < 4 { // minimal action: R[x]
			return dst, fmt.Errorf("txn.Parse: truncated action at %q", rest)
		}
		var kind OpKind
		switch rest[0] {
		case 'R':
			kind = OpRead
		case 'W':
			kind = OpWrite
		case 'I':
			kind = OpInsert
		case 'U':
			kind = OpUpdate
		default:
			return dst, fmt.Errorf("txn.Parse: unknown action %q", rest[0])
		}
		if rest[1] != '[' {
			return dst, fmt.Errorf("txn.Parse: expected '[' after %c in %q", rest[0], rest)
		}
		end := strings.IndexByte(rest, ']')
		if end < 0 {
			return dst, fmt.Errorf("txn.Parse: unterminated item in %q", rest)
		}
		key, err := parseItem(rest[2:end])
		if err != nil {
			return dst, err
		}
		dst = append(dst, Op{Kind: kind, Key: key})
		rest = strings.TrimSpace(rest[end+1:])
	}
	return dst, nil
}

// parseFail empties the half-parsed transaction and formats the error.
func (t *Transaction) parseFail(format string, args ...any) error {
	t.Ops = t.Ops[:0]
	return fmt.Errorf(format, args...)
}

// MustParse is Parse that panics on malformed input; for tests and
// examples with literal transactions.
func MustParse(id int, s string) *Transaction {
	t, err := Parse(id, s)
	if err != nil {
		panic(err)
	}
	return t
}

func parseItem(s string) (Key, error) {
	if strings.HasPrefix(s, "x") {
		n, err := strconv.ParseUint(s[1:], 10, 48)
		if err != nil {
			return 0, fmt.Errorf("txn.Parse: bad item %q: %v", s, err)
		}
		return MakeKey(0, n), nil
	}
	if table, row, ok := strings.Cut(s, ":"); ok {
		tn, err := strconv.ParseUint(table, 10, 16)
		if err != nil {
			return 0, fmt.Errorf("txn.Parse: bad table in %q: %v", s, err)
		}
		rn, err := strconv.ParseUint(row, 10, 48)
		if err != nil {
			return 0, fmt.Errorf("txn.Parse: bad row in %q: %v", s, err)
		}
		return MakeKey(uint16(tn), rn), nil
	}
	return 0, fmt.Errorf("txn.Parse: bad item %q", s)
}

// MustParseWorkload parses one transaction per line; blank lines and
// lines starting with '#' are skipped. IDs are assigned 0..n-1 in line
// order.
func MustParseWorkload(s string) Workload {
	var w Workload
	for _, line := range strings.Split(s, "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		w = append(w, MustParse(len(w), line))
	}
	return w
}
