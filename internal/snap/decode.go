package snap

import (
	"encoding/binary"
	"math"
	"slices"
)

// dec is a bounds-checked reader over one section payload. Every method
// returns a *FormatError carrying the section name and the offset the
// failure was detected at; nothing in this file panics on any input, and
// declared lengths are validated against the remaining bytes before
// allocation so hostile inputs cannot force huge allocations.
type dec struct {
	section string
	data    []byte
	off     int
}

func newDec(section string, data []byte) *dec {
	return &dec{section: section, data: data}
}

// err builds a FormatError at the current offset.
func (d *dec) err(msg string, cause error) *FormatError {
	return &FormatError{Section: d.section, Offset: int64(d.off), Msg: msg, Err: cause}
}

// remaining returns the unread byte count.
func (d *dec) remaining() int { return len(d.data) - d.off }

// finished reports whether the payload was fully consumed; codecs call it
// last so trailing garbage inside a section is rejected, not ignored.
func (d *dec) finished(what string) error {
	if d.remaining() != 0 {
		return d.err(what+": trailing bytes after payload", ErrCorrupt)
	}
	return nil
}

// uvarintAt decodes the unsigned varint at data[off:] and returns it with
// the offset just past it; a returned offset not beyond off marks a
// truncated or overlong encoding.
func uvarintAt(data []byte, off int) (uint64, int) {
	v, n := binary.Uvarint(data[off:])
	return v, off + n
}

// uvarintShort decodes a one- or two-byte unsigned varint at data[off:],
// the common case in code and count columns (codes below 16384); ok is
// false for anything longer or cut short, which uvarintAt then decodes.
// It makes no call, so it inlines into the column loops below, which
// keep their read position in a local and store d.off once.
func uvarintShort(data []byte, off int) (v uint64, next int, ok bool) {
	if off < len(data) {
		b := data[off]
		if b < 0x80 {
			return uint64(b), off + 1, true
		}
		if off+1 < len(data) && data[off+1] < 0x80 {
			return uint64(b&0x7f) | uint64(data[off+1])<<7, off + 2, true
		}
	}
	return 0, off, false
}

// unzigzag maps a zigzag-encoded value back to the signed integer that
// binary.PutVarint wrote.
func unzigzag(ux uint64) int64 {
	v := int64(ux >> 1)
	if ux&1 != 0 {
		v = ^v
	}
	return v
}

func (d *dec) uvarint(what string) (uint64, error) {
	v, next := uvarintAt(d.data, d.off)
	if next <= d.off {
		return 0, d.err(what, ErrTruncated)
	}
	d.off = next
	return v, nil
}

func (d *dec) varint(what string) (int64, error) {
	ux, err := d.uvarint(what)
	return unzigzag(ux), err
}

func (d *dec) u8(what string) (uint8, error) {
	if d.remaining() < 1 {
		return 0, d.err(what, ErrTruncated)
	}
	v := d.data[d.off]
	d.off++
	return v, nil
}

func (d *dec) bool(what string) (bool, error) {
	v, err := d.u8(what)
	if err != nil {
		return false, err
	}
	if v > 1 {
		return false, d.err(what+": boolean byte not 0 or 1", ErrCorrupt)
	}
	return v == 1, nil
}

func (d *dec) f64(what string) (float64, error) {
	if d.remaining() < 8 {
		return 0, d.err(what, ErrTruncated)
	}
	v := binary.LittleEndian.Uint64(d.data[d.off:])
	d.off += 8
	return math.Float64frombits(v), nil
}

func (d *dec) str(what string) (string, error) {
	// Inlined uvarint so the hot path allocates no error-label strings.
	n, adv := binary.Uvarint(d.data[d.off:])
	if adv <= 0 {
		return "", d.err(what+": truncated length", ErrTruncated)
	}
	d.off += adv
	if n > uint64(d.remaining()) {
		return "", d.err(what+": declared length exceeds remaining bytes", ErrTruncated)
	}
	s := string(d.data[d.off : d.off+int(n)])
	d.off += int(n)
	return s, nil
}

// length reads a declared element count, rejecting counts that cannot fit
// in the remaining bytes at minBytes per element.
func (d *dec) length(what string, minBytes int) (int, error) {
	n, err := d.uvarint(what + " count")
	if err != nil {
		return 0, err
	}
	if minBytes > 0 && n > uint64(d.remaining())/uint64(minBytes) {
		return 0, d.err(what+": declared count exceeds remaining bytes", ErrTruncated)
	}
	return int(n), nil
}

//whpcvet:hot
func (d *dec) words(what string) ([]uint64, error) {
	n, err := d.length(what, 8)
	if err != nil {
		return nil, err
	}
	if n == 0 {
		return nil, nil
	}
	out := make([]uint64, n)
	for i := range out {
		if d.remaining() < 8 {
			//whpcvet:ignore hotalloc error construction aborts the decode; it allocates once per corrupt file, not per iteration
			return nil, d.err(what, ErrTruncated)
		}
		out[i] = binary.LittleEndian.Uint64(d.data[d.off:])
		d.off += 8
	}
	return out, nil
}

func (d *dec) strDict(what string) ([]string, error) {
	n, err := d.length(what, 1)
	if err != nil {
		return nil, err
	}
	return d.strings(what, n, nil)
}

// strings reads n length-prefixed strings into buf's storage when it has
// room, else into a fresh slice; callers that copy each column out as it
// decodes reuse one buf across columns. All values share one backing
// allocation (a single copy of the column's byte region) instead of one
// allocation each, which dominates warm-boot decode time for the large
// id/name/title columns. A first pass validates the lengths and finds the
// region's end; the second slices the values out of the copy.
//
//whpcvet:hot
func (d *dec) strings(what string, n int, buf []string) ([]string, error) {
	start := d.off
	for i := 0; i < n; i++ {
		ln, adv := binary.Uvarint(d.data[d.off:])
		if adv <= 0 {
			//whpcvet:ignore hotalloc error construction aborts the decode; it allocates once per corrupt file, not per iteration
			return nil, d.err(what+": truncated value length", ErrTruncated)
		}
		d.off += adv
		if ln > uint64(d.remaining()) {
			//whpcvet:ignore hotalloc error construction aborts the decode; it allocates once per corrupt file, not per iteration
			return nil, d.err(what+": declared value length exceeds remaining bytes", ErrTruncated)
		}
		d.off += int(ln)
	}
	region := d.data[start:d.off]
	blob := string(region)
	out := slices.Grow(buf[:0], n)[:n]
	off := 0
	for i := range out {
		ln, adv := binary.Uvarint(region[off:])
		off += adv
		out[i] = blob[off : off+int(ln)]
		off += int(ln)
	}
	return out, nil
}

// intCol reads a varint column into buf's storage when it has room, else
// into a fresh slice, like strings.
//
//whpcvet:hot
func (d *dec) intCol(what string, buf []int64) ([]int64, error) {
	n, err := d.length(what, 1)
	if err != nil {
		return nil, err
	}
	out := slices.Grow(buf[:0], n)[:n]
	data, off := d.data, d.off
	for i := range out {
		ux, next, ok := uvarintShort(data, off)
		if !ok {
			ux, next = uvarintAt(data, off)
		}
		if next <= off {
			d.off = off
			//whpcvet:ignore hotalloc error construction aborts the decode; it allocates once per corrupt file, not per iteration
			return nil, d.err(what, ErrTruncated)
		}
		off = next
		out[i] = unzigzag(ux)
	}
	d.off = off
	return out, nil
}

// codeCol reads a dictionary-code column, validating every code against
// the dictionary cardinality so a decoded column can never index out of
// range.
//
//whpcvet:hot
func (d *dec) codeCol(what string, dictLen int) ([]int32, error) {
	n, err := d.length(what, 1)
	if err != nil {
		return nil, err
	}
	out := make([]int32, n)
	data, off := d.data, d.off
	for i := range out {
		v, next, ok := uvarintShort(data, off)
		if !ok {
			v, next = uvarintAt(data, off)
		}
		if next <= off {
			d.off = off
			//whpcvet:ignore hotalloc error construction aborts the decode; it allocates once per corrupt file, not per iteration
			return nil, d.err(what, ErrTruncated)
		}
		off = next
		if v >= uint64(dictLen) {
			d.off = off
			//whpcvet:ignore hotalloc error construction aborts the decode; it allocates once per corrupt file, not per iteration
			return nil, d.err(what+": dictionary code out of range", ErrCorrupt)
		}
		out[i] = int32(v)
	}
	d.off = off
	return out, nil
}

//whpcvet:hot
func (d *dec) floatCol(what string) ([]float64, error) {
	n, err := d.length(what, 8)
	if err != nil {
		return nil, err
	}
	out := make([]float64, n)
	for i := range out {
		if out[i], err = d.f64(what); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// strCol reads a raw string column, reusing buf's storage as strings
// does.
func (d *dec) strCol(what string, buf []string) ([]string, error) {
	n, err := d.length(what, 1)
	if err != nil {
		return nil, err
	}
	return d.strings(what, n, buf)
}
