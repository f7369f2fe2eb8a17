package dataset

import "maps"

// Clone returns a copy of the dataset with fresh containers and indexes
// but shared entity pointers: appending conferences, papers or persons to
// the clone leaves the receiver untouched, while the immutable entity
// records are not duplicated. Callers must treat the shared entities as
// read-only (the delta-apply path only ever adds entities, never mutates
// them).
func (d *Dataset) Clone() *Dataset {
	out := &Dataset{
		Conferences: append([]*Conference(nil), d.Conferences...),
		Papers:      append([]*Paper(nil), d.Papers...),
		// Re-inserted into a map presized by CloneCap rather than copied
		// with maps.Clone, whose copy is sized to the current population
		// and grows again under the delta's AddPerson calls.
		Persons:      make(map[PersonID]*Person, CloneCap(len(d.Persons))),
		papersByConf: make(map[ConfID][]*Paper, len(d.papersByConf)),
		confByID:     maps.Clone(d.confByID),
	}
	for id, p := range d.Persons {
		out.Persons[id] = p
	}
	if out.confByID == nil {
		out.confByID = make(map[ConfID]*Conference)
	}
	for _, c := range d.Conferences {
		if ps := d.papersByConf[c.ID]; ps != nil {
			out.papersByConf[c.ID] = append([]*Paper(nil), ps...)
		}
	}
	return out
}

// CloneCap is the capacity a clone of n elements gets, here and in the
// frame clones of package query: room for one conference-year delta. A
// year delta of the ten-edition flagship series grows the population,
// every frame, and the person and paper dictionaries by 15-17%, so a
// quarter keeps the delta apply from growing each clone a second time.
func CloneCap(n int) int { return n + n/4 + 64 }
