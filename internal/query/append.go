package query

import (
	"fmt"
	"sort"

	"repro/internal/cite"
	"repro/internal/dataset"
	"repro/internal/par"
)

// This file is the incremental-maintenance half of the frame builders: it
// grows an already-built FrameSet in place when one conference edition is
// appended to the corpus, producing byte-identical frames (under the
// snapshot codec's canonical encoding) to a full NewFrameSet rebuild while
// touching only O(new rows) of column data. The per-conference emission
// helpers in frame.go are shared verbatim between both paths, driven here
// through colAppender instead of colBuilder.

// colSink abstracts row emission over either a fresh column builder or an
// in-place appender, so the frame builders' per-conference emission
// helpers serve both construction and incremental maintenance.
type colSink interface {
	addInt(int64)
	addFloat(float64)
	addStr(string)
	addBool(bool)
	addNull()
}

var (
	_ colSink = (*colBuilder)(nil)
	_ colSink = (*colAppender)(nil)
)

// setBit grows b to cover bit i (zero-filled, word at a time) and sets or
// clears it, returning the possibly reallocated bitmap.
func setBit(b Bitmap, i int, v bool) Bitmap {
	for len(b)*64 <= i {
		b = append(b, 0)
	}
	if v {
		b[i>>6] |= 1 << (uint(i) & 63)
	} else {
		b[i>>6] &^= 1 << (uint(i) & 63)
	}
	return b
}

// colAppender appends rows to an existing column in place. Unlike
// colBuilder it cannot track validity lazily: the builder leaves garbage
// tail bits in its bitmaps (the engine never reads past the row count and
// the snapshot codec canonicalizes them away), so the appender explicitly
// sets or clears the validity and boolean bit of every appended row rather
// than trusting prior tail state.
type colAppender struct {
	col *Column
	n   int // rows present, including ones appended so far
}

func (a *colAppender) addInt(v int64) {
	a.col.Ints = append(a.col.Ints, v)
	a.mark(true)
}

func (a *colAppender) addFloat(v float64) {
	a.col.Floats = append(a.col.Floats, v)
	a.mark(true)
}

func (a *colAppender) addStr(s string) {
	a.col.Codes = append(a.col.Codes, a.col.Dict.Code(s))
	a.mark(true)
}

func (a *colAppender) addBool(v bool) {
	a.col.Bools = setBit(a.col.Bools, a.n, v)
	a.mark(true)
}

func (a *colAppender) addNull() {
	switch a.col.Type {
	case TInt:
		a.col.Ints = append(a.col.Ints, 0)
	case TFloat:
		a.col.Floats = append(a.col.Floats, 0)
	case TStr:
		a.col.Codes = append(a.col.Codes, a.col.Dict.Code(""))
	case TBool:
		a.col.Bools = setBit(a.col.Bools, a.n, false)
	}
	a.mark(false)
}

// mark records the validity of the row just appended. A column that never
// held a null keeps its nil (all-valid) bitmap until the first null
// arrives, at which point the bitmap is materialized all-ones exactly as
// colBuilder.finish would have.
func (a *colAppender) mark(valid bool) {
	if a.col.Valid == nil {
		if valid {
			a.n++
			return
		}
		v := make(Bitmap, a.n/64+1)
		for i := range v {
			v[i] = ^uint64(0)
		}
		a.col.Valid = v
	}
	a.col.Valid = setBit(a.col.Valid, a.n, valid)
	a.n++
}

// appenders builds one colAppender per named column of f, all positioned
// at the current row count. Missing columns are an error (a frame set from
// an older snapshot generation may predate a column or frame).
func appenders(f *Frame, names ...string) ([]*colAppender, error) {
	out := make([]*colAppender, len(names))
	for i, name := range names {
		c, ok := f.byName[name]
		if !ok {
			return nil, fmt.Errorf("query: frame %q has no column %q to append to", f.Name, name)
		}
		out[i] = &colAppender{col: c, n: f.NumRows}
	}
	return out, nil
}

// personAppendSinks wraps six demographic colAppenders as personSinks.
func personAppendSinks(a []*colAppender) personSinks {
	return personSinks{gender: a[0], known: a[1], female: a[2], country: a[3], region: a[4], sector: a[5]}
}

// AppendConference grows the frame set in place with the rows contributed
// by conference confID of d, which must be the last conference of the
// corpus and absent from the frames. On success the frame set is
// byte-identical (under the snapshot codec's canonical encoding) to
// NewFrameSet(d); repro_test pins that postcondition corpus-wide.
//
// Preconditions, verified before any mutation:
//   - d contains confID as its final conference, and every earlier
//     conference matches the frames' pre-seeded conference dictionary in
//     corpus order;
//   - d's papers keep each conference's papers contiguous with the new
//     conference's at the tail (true for the synthesizer and the delta
//     merge path);
//   - confID's year is no older than any existing conference's, so the
//     appended papers cannot enter existing papers' citation candidate
//     pools and the citations frame stays a pure tail append.
//
// A violated precondition returns an error with the frames untouched;
// callers fall back to a full rebuild. The people frame, kept in sorted-ID
// order, is appended to when every researcher first holding a role at
// confID sorts after the existing rows (the synthesizer mints IDs in
// increasing order) and rebuilt from d otherwise.
func (fs *FrameSet) AppendConference(d *dataset.Dataset, confID dataset.ConfID) error {
	c, ok := d.Conference(confID)
	if !ok {
		return fmt.Errorf("query: append: conference %q not in dataset", confID)
	}
	if len(d.Conferences) == 0 || d.Conferences[len(d.Conferences)-1].ID != confID {
		return fmt.Errorf("query: append: conference %q must be the last of the corpus", confID)
	}
	for _, name := range []string{FrameSlots, FramePeople, FrameMembers, FramePapers, FrameCohorts, FrameCitations} {
		if _, ok := fs.Frame(name); !ok {
			return fmt.Errorf("query: append: frame %q missing (rebuilt from an older snapshot?)", name)
		}
	}
	for _, bc := range d.Conferences[:len(d.Conferences)-1] {
		if bc.Year > c.Year {
			return fmt.Errorf("query: append: conference %q (%d) is older than existing %q (%d); citation pools of built rows would change",
				confID, c.Year, bc.ID, bc.Year)
		}
	}
	slots, _ := fs.Frame(FrameSlots)
	confCol, ok := slots.Column("conf")
	if !ok {
		return fmt.Errorf("query: append: slots frame has no conf column")
	}
	if _, dup := confCol.Dict.Lookup(string(confID)); dup {
		return fmt.Errorf("query: append: conference %q already present in frames", confID)
	}
	if confCol.Dict.Len() != len(d.Conferences)-1 {
		return fmt.Errorf("query: append: frames hold %d conferences, dataset has %d before %q",
			confCol.Dict.Len(), len(d.Conferences)-1, confID)
	}
	for i, bc := range d.Conferences[:len(d.Conferences)-1] {
		if confCol.Dict.Value(int32(i)) != string(bc.ID) {
			return fmt.Errorf("query: append: conference %q at corpus position %d not in frames", bc.ID, i)
		}
	}

	confRoles, confAuthored := confContribution(d, c)
	people, _ := fs.Frame(FramePeople)
	personCol, ok := people.Column("person")
	if !ok {
		return fmt.Errorf("query: append: people frame has no person column")
	}
	newIDs := make([]string, 0, len(confRoles))
	for id := range confRoles {
		if _, seen := personCol.Dict.Lookup(string(id)); !seen {
			newIDs = append(newIDs, string(id))
		}
	}
	sort.Strings(newIDs)
	// A researcher minted into the base corpus without a role there has no
	// people row; when such a researcher first takes a role here, their ID
	// can sort before existing rows. The people frame is then rebuilt from
	// the merged corpus instead of appended to.
	rebuildPeople := len(newIDs) > 0 && people.NumRows > 0 && newIDs[0] <= personCol.str(people.NumRows-1)

	// The six frames share nothing, so their appends run concurrently;
	// errors are reported in frame order.
	var rebuilt *Frame
	steps := [...]func() error{
		func() error { return fs.appendSlots(d, c) },
		func() error {
			if rebuildPeople {
				rebuilt = buildPeople(d)
				return nil
			}
			return fs.appendPeople(d, c, confRoles, confAuthored, newIDs)
		},
		func() error { return fs.appendMembers(d, c) },
		func() error { return fs.appendPapers(d, c) },
		func() error { return fs.appendCohorts(d, c) },
		func() error { return fs.appendCitations(d, c) },
	}
	errs := make([]error, len(steps))
	par.For(len(steps), func(i int) { errs[i] = steps[i]() })
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	if rebuilt != nil {
		for i, f := range fs.frames {
			if f.Name == FramePeople {
				fs.frames[i] = rebuilt
			}
		}
	}
	return nil
}

// confContribution returns, per person participating in conference c, the
// roles held there and the number of its papers they authored.
func confContribution(d *dataset.Dataset, c *dataset.Conference) (map[dataset.PersonID]map[dataset.Role]bool, map[dataset.PersonID]int64) {
	roles := make(map[dataset.PersonID]map[dataset.Role]bool)
	authored := make(map[dataset.PersonID]int64)
	for _, p := range d.PapersOf(c.ID) {
		for _, id := range p.Authors {
			markRole(roles, id, dataset.RoleAuthor)
			authored[id]++
		}
	}
	for _, r := range dataset.Roles() {
		if r == dataset.RoleAuthor {
			continue
		}
		for _, id := range c.RoleHolders(r) {
			markRole(roles, id, r)
		}
	}
	return roles, authored
}

func (fs *FrameSet) appendSlots(d *dataset.Dataset, c *dataset.Conference) error {
	f, _ := fs.Frame(FrameSlots)
	a, err := appenders(f,
		"conf", "conference", "year", "role", "person",
		"gender", "known", "female", "country", "region", "sector",
		"double_blind", "attendance", "lead", "last", "paper", "citations36", "hpc_topic")
	if err != nil {
		return err
	}
	s := slotsSinks{
		conf: a[0], name: a[1], year: a[2], role: a[3], person: a[4],
		pc:          personAppendSinks(a[5:11]),
		doubleBlind: a[11], attendance: a[12], lead: a[13], last: a[14],
		paper: a[15], citations: a[16], hpc: a[17],
	}
	f.NumRows += emitConfSlots(d, c, s)
	return nil
}

// appendPeople patches the rows of researchers already present (new role
// flags, incremented paper counts — their demographics and scholar columns
// are untouched because the person records themselves are immutable) and
// appends one row per researcher first appearing at c, in sorted ID order.
// Row index equals person dictionary code: rows are emitted in sorted
// order with unique IDs, so codes are assigned 0..n-1 in row order, and
// the precondition check keeps that true across appends.
func (fs *FrameSet) appendPeople(d *dataset.Dataset, c *dataset.Conference, confRoles map[dataset.PersonID]map[dataset.Role]bool, confAuthored map[dataset.PersonID]int64, newIDs []string) error {
	f, _ := fs.Frame(FramePeople)
	names := []string{"person", "gender", "known", "female", "country", "region", "sector"}
	for _, r := range dataset.Roles() {
		names = append(names, "is_"+flagName(r))
	}
	names = append(names, "papers", "gs_pubs", "hindex", "s2_pubs")
	a, err := appenders(f, names...)
	if err != nil {
		return err
	}
	personCol, papersCol := a[0].col, a[13].col
	roleCols := make([]*Column, len(dataset.Roles()))
	for i := range roleCols {
		roleCols[i] = a[7+i].col
	}

	ids := make([]string, 0, len(confRoles))
	for id := range confRoles {
		ids = append(ids, string(id))
	}
	sort.Strings(ids)
	for _, sid := range ids {
		code, seen := personCol.Dict.Lookup(sid)
		if !seen {
			continue // first appearance: appended below
		}
		row := int(code)
		for ri, r := range dataset.Roles() {
			if confRoles[dataset.PersonID(sid)][r] {
				roleCols[ri].Bools.Set(row)
			}
		}
		papersCol.Ints[row] += confAuthored[dataset.PersonID(sid)]
	}

	flagSinks := make([]colSink, len(roleCols))
	for i := range roleCols {
		flagSinks[i] = a[7+i]
	}
	s := peopleSinks{
		person: a[0], pc: personAppendSinks(a[1:7]), roleFlags: flagSinks,
		papers: a[13], gsPubs: a[14], hindex: a[15], s2Pubs: a[16],
	}
	for _, sid := range newIDs {
		id := dataset.PersonID(sid)
		emitPersonRow(d, id, confRoles[id], confAuthored[id], s)
	}
	f.NumRows += len(newIDs)
	return nil
}

// appendMembers replays the first-qualification scan over the base
// conferences to rebuild the seen sets (map work proportional to the
// corpus, but no row emission or column writes), then emits only the new
// conference's newly-qualifying rows.
func (fs *FrameSet) appendMembers(d *dataset.Dataset, c *dataset.Conference) error {
	f, _ := fs.Frame(FrameMembers)
	a, err := appenders(f, "role", "person", "gender", "known", "female", "country", "region", "sector")
	if err != nil {
		return err
	}
	// Rebuild the base conferences' seen sets directly: only membership
	// matters here (emitConfMembers sorts the new conference's qualifiers
	// itself), so the per-conference sorted scans confNewMembers runs
	// during a full build would cost milliseconds for nothing. And only
	// the new conference's participants are ever looked up, so the sets
	// hold just those of them who qualified earlier.
	cand := make(map[dataset.PersonID]bool)
	for _, p := range d.PapersOf(c.ID) {
		for _, id := range p.Authors {
			cand[id] = true
		}
	}
	for _, id := range c.PCMembers {
		cand[id] = true
	}
	seenAuthor := make(map[dataset.PersonID]bool)
	seenPC := make(map[dataset.PersonID]bool)
	for _, bc := range d.Conferences {
		if bc.ID == c.ID {
			continue
		}
		for _, p := range d.PapersOf(bc.ID) {
			for _, id := range p.Authors {
				if cand[id] {
					seenAuthor[id] = true
				}
			}
		}
		for _, id := range bc.PCMembers {
			if cand[id] {
				seenPC[id] = true
			}
		}
	}
	s := membersSinks{role: a[0], person: a[1], pc: personAppendSinks(a[2:8])}
	f.NumRows += emitConfMembers(d, c, seenAuthor, seenPC, s)
	return nil
}

func (fs *FrameSet) appendPapers(d *dataset.Dataset, c *dataset.Conference) error {
	f, _ := fs.Frame(FramePapers)
	a, err := appenders(f,
		"paper", "conference", "conference_name", "year",
		"lead_gender", "lead_known", "lead_female",
		"citations36", "hpc_topic", "authors", "double_blind")
	if err != nil {
		return err
	}
	s := papersSinks{
		paper: a[0], conf: a[1], name: a[2], year: a[3],
		leadGender: a[4], leadKnown: a[5], leadFemale: a[6],
		citations: a[7], hpc: a[8], authors: a[9], doubleBlind: a[10],
	}
	n := 0
	for _, p := range d.PapersOf(c.ID) {
		emitPaperRow(d, p, c, s)
		n++
	}
	f.NumRows += n
	return nil
}

// appendCohorts patches the previous edition of the same series in place —
// its participants' observed bits flip on and retained bits reflect
// membership in the appended edition — then appends the new edition's own
// cohort block.
func (fs *FrameSet) appendCohorts(d *dataset.Dataset, c *dataset.Conference) error {
	f, _ := fs.Frame(FrameCohorts)
	a, err := appenders(f,
		"conf", "series", "year", "person",
		"gender", "known", "female", "country", "region", "sector",
		"retained", "observed")
	if err != nil {
		return err
	}
	confCol, personCol := a[0].col, a[3].col
	retCol, obsCol := a[10].col, a[11].col

	if prev := prevEdition(d, c); prev != nil {
		if code, ok := confCol.Dict.Lookup(string(prev.ID)); ok {
			cur := participantSet(d, c)
			// The previous edition's block was built with observed=false and
			// retained=false (no next edition existed); the bits only ever
			// flip on, so setting without clearing is exact.
			for i := 0; i < f.NumRows; i++ {
				if confCol.Codes[i] != code {
					continue
				}
				obsCol.Bools.Set(i)
				if cur[dataset.PersonID(personCol.str(i))] {
					retCol.Bools.Set(i)
				}
			}
		}
	}

	s := cohortsSinks{
		conf: a[0], series: a[1], year: a[2], person: a[3],
		pc:       personAppendSinks(a[4:10]),
		retained: a[10], observed: a[11],
	}
	f.NumRows += emitConfCohorts(d, c, s)
	return nil
}

// appendCitations synthesizes only the appended conference's citation
// edges (O(new edges) emission; pool scans see the whole corpus) and
// appends them. Existing rows are untouched: the year precondition
// guarantees no appended paper enters an existing paper's candidate pool,
// so the result matches a full graph resynthesis edge-for-edge.
func (fs *FrameSet) appendCitations(d *dataset.Dataset, c *dataset.Conference) error {
	f, _ := fs.Frame(FrameCitations)
	a, err := appenders(f,
		"src_paper", "src_conf", "src_year",
		"dst_paper", "dst_conf", "dst_year",
		"team", "src_lead_gender", "dst_lead_gender",
		"dst_lead_known", "dst_lead_female",
		"same_conf", "cross_year",
		"null_female", "null_known",
		"src_region")
	if err != nil {
		return err
	}
	// A rebuild pre-seeds both conference dictionaries with every corpus
	// conference; match it even when no appended edge touches the new one.
	a[1].col.Dict.Code(string(c.ID))
	a[4].col.Dict.Code(string(c.ID))
	s := citeSinks{
		srcPaper: a[0], srcConf: a[1], srcYear: a[2],
		dstPaper: a[3], dstConf: a[4], dstYear: a[5],
		team: a[6], srcLead: a[7], dstLead: a[8],
		dstKnown: a[9], dstFemale: a[10],
		sameConf: a[11], crossYear: a[12],
		nullFemale: a[13], nullKnown: a[14],
		region: a[15],
	}
	edges := cite.ConferenceEdges(d, c.ID)
	f.NumRows += emitCitationEdges(d, cite.NewMeta(d), edges, s)
	return nil
}
