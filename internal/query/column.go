// Package query is a stdlib-only columnar query engine for ad-hoc
// bibliometric slices over the reproduction's corpus. It flattens the
// Study's role-holder/paper/researcher graph into typed column vectors
// (dictionary-encoded strings, int/float vectors, boolean and validity
// bitmaps) grouped into a small set of Frames, and executes a declarative
// JSON query model — predicate-pushdown filters, multi-key group-by,
// aggregate kernels (count, sum, mean, min, max, first, FAR-style
// ratio-of-flags) and two-group comparison kernels (Welch t-test and
// two-proportion chi-squared, reusing internal/stats) — in parallel over
// fixed-size row partitions with a deterministic merge, so results are
// byte-identical regardless of GOMAXPROCS.
//
// The engine is correctness-checked against the paper itself: the named
// queries in ExhibitQueries reproduce the repository's exhibit CSV
// families byte-for-byte (see repro_test.go at the module root).
package query

import (
	"hash/maphash"
	"strconv"
)

// ColType is the storage type of one column vector.
type ColType int8

// Column storage types. Strings are dictionary-encoded; booleans and
// validity are bitmaps.
const (
	TInt ColType = iota
	TFloat
	TStr
	TBool
)

// String names the type as the JSON schema output spells it.
func (t ColType) String() string {
	switch t {
	case TInt:
		return "int"
	case TFloat:
		return "float"
	case TStr:
		return "str"
	case TBool:
		return "bool"
	default:
		return "coltype(" + strconv.Itoa(int(t)) + ")"
	}
}

// Bitmap is a dense bitset over row indexes.
type Bitmap []uint64

// NewBitmap returns a bitmap with capacity for n rows, all clear.
func NewBitmap(n int) Bitmap { return make(Bitmap, (n+63)/64) }

// Set marks row i.
func (b Bitmap) Set(i int) { b[i>>6] |= 1 << (uint(i) & 63) }

// Get reports whether row i is set.
func (b Bitmap) Get(i int) bool { return b[i>>6]&(1<<(uint(i)&63)) != 0 }

// Dict is an append-only string dictionary. Codes are assigned in first-
// insertion order, which frame builders exploit to make "appearance" sort
// order meaningful (e.g. conference dictionaries follow Table 1 order).
type Dict struct {
	vals []string
	// slots is an open-addressing (linear probing) index over vals: a slot
	// holds code+1, zero marks it empty, and the power-of-two table stays
	// at most half full. Unlike a map[string]int32 it holds no pointers,
	// so the collector never scans it, building it costs one allocation,
	// and Clone is a plain copy.
	slots []int32
}

// dictSeed keys the slot hash. Only slot placement depends on it; codes
// follow insertion order, so every output is independent of the seed.
var dictSeed = maphash.MakeSeed()

// dictSlots returns the table size for n values: the smallest power of two
// of at least 2n, and at least 8.
func dictSlots(n int) int {
	size := 8
	for size < 2*n {
		size *= 2
	}
	return size
}

// NewDict returns an empty dictionary, pre-seeding the given values in
// order (seeding fixes the appearance order independently of row order).
func NewDict(seed ...string) *Dict {
	d := &Dict{vals: make([]string, 0, len(seed)), slots: make([]int32, dictSlots(len(seed)))}
	for _, s := range seed {
		d.Code(s)
	}
	return d
}

// DictOf returns the dictionary whose code i is vals[i], taking ownership
// of vals (decoders hand over a freshly decoded slice). ok is false when
// vals repeats a value, which no dictionary can hold.
func DictOf(vals []string) (d *Dict, ok bool) {
	d = &Dict{vals: vals, slots: make([]int32, dictSlots(len(vals)))}
	for i, s := range vals {
		slot, _, dup := d.find(s)
		if dup {
			return nil, false
		}
		d.slots[slot] = int32(i) + 1
	}
	return d, true
}

// find probes for s. When present it returns its code; otherwise slot is
// the empty slot where s belongs.
func (d *Dict) find(s string) (slot int, code int32, ok bool) {
	mask := len(d.slots) - 1
	i := int(maphash.String(dictSeed, s)) & mask
	for {
		c := d.slots[i]
		if c == 0 {
			return i, 0, false
		}
		if d.vals[c-1] == s {
			return i, c - 1, true
		}
		i = (i + 1) & mask
	}
}

// Code interns s, returning its stable code.
func (d *Dict) Code(s string) int32 {
	slot, c, ok := d.find(s)
	if ok {
		return c
	}
	c = int32(len(d.vals))
	d.vals = append(d.vals, s)
	if 2*len(d.vals) > len(d.slots) {
		d.reindex(dictSlots(len(d.vals)))
	} else {
		d.slots[slot] = c + 1
	}
	return c
}

// reindex rebuilds the slot table at the given size.
func (d *Dict) reindex(size int) {
	d.slots = make([]int32, size)
	for i, s := range d.vals {
		slot, _, _ := d.find(s)
		d.slots[slot] = int32(i) + 1
	}
}

// Lookup returns the code for s without interning; ok is false when s was
// never seen (predicates on absent values become constant-false).
func (d *Dict) Lookup(s string) (int32, bool) {
	_, c, ok := d.find(s)
	return c, ok
}

// Value returns the string for a code.
func (d *Dict) Value(c int32) string { return d.vals[c] }

// Values returns a copy of the dictionary values in code order (code i is
// Values()[i]); the snapshot codec serializes dictionaries through it.
func (d *Dict) Values() []string {
	return append([]string(nil), d.vals...)
}

// Len returns the dictionary cardinality.
func (d *Dict) Len() int { return len(d.vals) }

// Column is one typed vector of a Frame. Exactly one of the data slices is
// populated according to Type; Valid is nil when every row is valid.
type Column struct {
	Name string
	Type ColType

	Ints   []int64
	Floats []float64
	Bools  Bitmap
	Codes  []int32 // dictionary codes, for TStr
	Dict   *Dict   // shared dictionary, for TStr

	Valid Bitmap // nil means all rows valid
}

// valid reports whether row i holds a value.
func (c *Column) valid(i int) bool { return c.Valid == nil || c.Valid.Get(i) }

// str returns the string value at row i (TStr columns only).
func (c *Column) str(i int) string { return c.Dict.Value(c.Codes[i]) }

// colBuilder accumulates one column row-at-a-time during frame
// construction, tracking validity lazily (the bitmap is only materialized
// when the first null appears).
type colBuilder struct {
	col     *Column
	n       int
	anyNull bool
	nulls   []int
}

func newIntCol(name string) *colBuilder {
	return &colBuilder{col: &Column{Name: name, Type: TInt}}
}

func newFloatCol(name string) *colBuilder {
	return &colBuilder{col: &Column{Name: name, Type: TFloat}}
}

func newStrCol(name string, dict *Dict) *colBuilder {
	if dict == nil {
		dict = NewDict()
	}
	return &colBuilder{col: &Column{Name: name, Type: TStr, Dict: dict}}
}

func newBoolCol(name string) *colBuilder {
	return &colBuilder{col: &Column{Name: name, Type: TBool}}
}

func (b *colBuilder) addInt(v int64) {
	b.col.Ints = append(b.col.Ints, v)
	b.n++
}

func (b *colBuilder) addFloat(v float64) {
	b.col.Floats = append(b.col.Floats, v)
	b.n++
}

func (b *colBuilder) addStr(s string) {
	b.col.Codes = append(b.col.Codes, b.col.Dict.Code(s))
	b.n++
}

func (b *colBuilder) addBool(v bool) {
	// Bools grow as a bitmap; extend on word boundaries.
	for len(b.col.Bools)*64 <= b.n {
		b.col.Bools = append(b.col.Bools, 0)
	}
	if v {
		b.col.Bools.Set(b.n)
	}
	b.n++
}

// addNull appends a null row (zero value + validity clear).
func (b *colBuilder) addNull() {
	b.anyNull = true
	b.nulls = append(b.nulls, b.n)
	switch b.col.Type {
	case TInt:
		b.addInt(0)
	case TFloat:
		b.addFloat(0)
	case TStr:
		b.addStr("")
	case TBool:
		b.addBool(false)
	}
}

// finish seals the column for n total rows, materializing the validity
// bitmap if any null was recorded.
func (b *colBuilder) finish(n int) *Column {
	if b.n != n {
		panic("query: column " + b.col.Name + " row count mismatch")
	}
	if b.anyNull {
		v := NewBitmap(n)
		for i := range v {
			v[i] = ^uint64(0)
		}
		for _, i := range b.nulls {
			v[i>>6] &^= 1 << (uint(i) & 63)
		}
		b.col.Valid = v
	}
	return b.col
}
