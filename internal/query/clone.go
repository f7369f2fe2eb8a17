package query

import (
	"slices"

	"repro/internal/dataset"
)

// Clone returns an independent copy of the dictionary with identical code
// assignments. The slot index is copied as is: it is a flat table, and
// its power-of-two slack usually absorbs a delta's new values without a
// reindex.
func (d *Dict) Clone() *Dict {
	return &Dict{vals: cloneGrown(d.vals), slots: slices.Clone(d.slots)}
}

// Clone returns a deep copy of the column: vectors, bitmaps and the
// dictionary are all copied, so in-place maintenance on the clone leaves
// the receiver untouched. Nil slices (including the nil all-valid bitmap)
// stay nil. The copies carry one conference-year's worth of headroom
// (see dataset.CloneCap), so the delta-apply path appends without
// immediately recopying every full column vector.
func (c *Column) Clone() *Column {
	out := &Column{Name: c.Name, Type: c.Type}
	out.Ints = cloneGrown(c.Ints)
	out.Floats = cloneGrown(c.Floats)
	out.Bools = cloneGrown(c.Bools)
	out.Codes = cloneGrown(c.Codes)
	out.Valid = cloneGrown(c.Valid)
	if c.Dict != nil {
		out.Dict = c.Dict.Clone()
	}
	return out
}

func cloneGrown[S ~[]E, E any](s S) S {
	if s == nil {
		return nil
	}
	out := make(S, len(s), dataset.CloneCap(len(s)))
	copy(out, s)
	return out
}

// Clone returns a deep copy of the frame set. AppendConference on the
// clone (the delta-apply path, and the apply benchmark's per-iteration
// reset) never observes or disturbs the receiver.
func (fs *FrameSet) Clone() *FrameSet {
	frames := make([]*Frame, len(fs.frames))
	for i, f := range fs.frames {
		cols := make([]*Column, len(f.cols))
		for j, c := range f.cols {
			cols[j] = c.Clone()
		}
		frames[i] = newFrame(f.Name, f.NumRows, cols)
	}
	return &FrameSet{frames: frames}
}
