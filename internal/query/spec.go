package query

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
)

// ErrInvalid marks a query rejected at validation time (unknown column,
// bad aggregate, malformed predicate, ...). The serving layer maps it to a
// structured 400; everything else is an execution failure.
var ErrInvalid = errors.New("query: invalid query")

// ErrEmpty marks a grouped query that matched no rows — there is nothing
// to group, which for the analytics API is a client-addressable condition
// (mapped to 422) rather than a server fault.
var ErrEmpty = errors.New("query: no rows matched; nothing to group")

// ErrTooExpensive marks a valid query refused at compile time because
// executing it would take more memory than the engine allows one query
// (a "complete" cross product over large key domains). The serving layer
// maps it to 422.
var ErrTooExpensive = errors.New("query: too expensive")

// Output formats accepted in Query.Format.
const (
	FormatJSON = "json"
	FormatCSV  = "csv"
)

// Query is the JSON query model. A query either groups (GroupBy+Aggs) or
// projects (Select); Where filters apply first in both shapes.
type Query struct {
	// Frame names the table to scan: slots, people, members, or papers.
	Frame string `json:"frame"`
	// Where is an AND of predicates, applied before grouping.
	Where []Pred `json:"where,omitempty"`
	// GroupBy lists the key columns; hidden keys participate in grouping
	// and ordering without appearing in the output.
	GroupBy []Key `json:"group_by,omitempty"`
	// Aggs are the aggregate outputs of a grouped query.
	Aggs []Agg `json:"aggs,omitempty"`
	// Select projects columns of an ungrouped query, in frame row order.
	Select []Key `json:"select,omitempty"`
	// OrderBy sorts the result rows; absent, grouped rows surface in
	// first-appearance order and projections in frame order.
	OrderBy []Order `json:"order_by,omitempty"`
	// Totals, when non-empty, appends an all-rows summary row labeled with
	// this string in the first visible key column (e.g. "ALL").
	Totals string `json:"totals,omitempty"`
	// Limit truncates the result after sorting; 0 keeps everything.
	Limit int `json:"limit,omitempty"`
	// Complete expands the grouped result to the full cross product of the
	// key domains (dictionary order for strings, false/true for bools),
	// zero-filling unobserved combinations — how the fixed exhibits render
	// empty role/sector cells.
	Complete bool `json:"complete,omitempty"`
	// Compare runs a two-group test (welch or chisq) over the grouped
	// result and attaches it to the response.
	Compare *Compare `json:"compare,omitempty"`
	// Format selects the response encoding: json (default) or csv.
	Format string `json:"format,omitempty"`
}

// Key references a frame column as a group key or projection, optionally
// renamed for output. In JSON a bare string is shorthand for {"col": s}.
type Key struct {
	Col  string `json:"col"`
	As   string `json:"as,omitempty"`
	Hide bool   `json:"hide,omitempty"`
}

// UnmarshalJSON accepts both "col" and {"col": ..., "as": ..., "hide": ...}.
func (k *Key) UnmarshalJSON(b []byte) error {
	if len(b) > 0 && b[0] == '"' {
		var s string
		if err := json.Unmarshal(b, &s); err != nil {
			return err
		}
		*k = Key{Col: s}
		return nil
	}
	type bare Key
	var v bare
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&v); err != nil {
		return err
	}
	*k = Key(v)
	return nil
}

// name returns the output column name.
func (k Key) name() string {
	if k.As != "" {
		return k.As
	}
	return k.Col
}

// Pred is one filter predicate. Leaf predicates name a column and an
// operator; an "any" predicate is the OR of its leaf children (one level
// deep). Supported operators: eq, ne, in, lt, le, gt, ge, null, notnull.
type Pred struct {
	Col    string `json:"col,omitempty"`
	Op     string `json:"op,omitempty"`
	Value  any    `json:"value,omitempty"`
	Values []any  `json:"values,omitempty"`
	Any    []Pred `json:"any,omitempty"`
}

// Agg is one aggregate output. Ops: count (optionally filtered by Where),
// sum, mean, min, max, first (over Col), and ratio — the FAR kernel:
// count(rows where Num) / count(rows where Den) over two boolean columns.
type Agg struct {
	Op    string `json:"op"`
	Col   string `json:"col,omitempty"`
	Num   string `json:"num,omitempty"`
	Den   string `json:"den,omitempty"`
	Where []Pred `json:"where,omitempty"`
	As    string `json:"as"`
}

// Order sorts by an output column (a visible or hidden key name, or an
// aggregate name). Appearance sorts a dictionary key by dictionary order —
// the order the frame builder seeded (e.g. Table 1 conference order) —
// instead of lexically.
type Order struct {
	Key        string `json:"key"`
	Desc       bool   `json:"desc,omitempty"`
	Appearance bool   `json:"appearance,omitempty"`
}

// Compare requests a two-group statistical test over a grouped result.
// Groups are two key tuples matching the group_by list (including hidden
// keys). Welch runs stats.WelchTTest over the raw values of frame column
// Col in each group; chisq runs stats.TwoProportionChiSq over the Num
// (successes) and Den (trials) count aggregates of the two groups.
type Compare struct {
	Test   string  `json:"test"`
	Col    string  `json:"col,omitempty"`
	Num    string  `json:"num,omitempty"`
	Den    string  `json:"den,omitempty"`
	Groups [][]any `json:"groups"`
}

// Parse decodes a JSON query spec strictly: unknown fields are rejected so
// a typoed aggregate or filter key fails loudly instead of being ignored.
func Parse(b []byte) (*Query, error) {
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	var q Query
	if err := dec.Decode(&q); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrInvalid, err)
	}
	// A second document in the body is a malformed request, not trailing
	// garbage to ignore.
	if dec.More() {
		return nil, fmt.Errorf("%w: trailing data after query object", ErrInvalid)
	}
	return &q, nil
}

// Canonical returns the deterministic re-encoding of the query: parsed
// specs that mean the same thing (whitespace, field order, string-vs-object
// keys) canonicalize to the same bytes. The serving layer keys its memoized
// cache on the hash of these bytes.
func (q *Query) Canonical() []byte {
	b, err := json.Marshal(q)
	if err != nil {
		// Query holds only JSON-marshalable fields; a failure here is a
		// programming error worth surfacing loudly.
		panic("query: canonicalize: " + err.Error())
	}
	return b
}

// Hash returns the hex SHA-256 of the canonical encoding.
func (q *Query) Hash() string {
	sum := sha256.Sum256(q.Canonical())
	return hex.EncodeToString(sum[:])
}
