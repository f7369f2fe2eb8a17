package snap

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/affil"
	"repro/internal/dataset"
	"repro/internal/gender"
	"repro/internal/scholar"
)

// The corpus codec serializes the three entity tables columnar-style:
// high-cardinality strings (IDs, names, titles, emails) raw, repetitive
// strings (affiliations, countries, conference IDs) dictionary-encoded,
// integers as zigzag varints, and presence flags (Google Scholar /
// Semantic Scholar linkage, HPC topic tags) as bitmaps with the dependent
// columns packed down to the present rows only. Person references in
// rosters and author lists are encoded as indexes into the sorted person
// ID table — dataset.Validate guarantees they resolve.

// bitmap helpers over plain []uint64 words (query.Bitmap is not imported
// here to keep the corpus codec independent of the frames codec).

func bitmapWords(n int) int { return (n + 63) / 64 }

func bitGet(w []uint64, i int) bool { return w[i>>6]&(1<<(uint(i)&63)) != 0 }

func bitSet(w []uint64, i int) { w[i>>6] |= 1 << (uint(i) & 63) }

// checkBitmap validates a decoded bitmap: exactly the words n rows need,
// and no bits set at or beyond row n (canonical form; a nonzero tail
// would make popcount-dependent column lengths ambiguous).
func checkBitmap(d *dec, what string, w []uint64, n int) error {
	if len(w) != bitmapWords(n) {
		return d.err(fmt.Sprintf("%s: bitmap has %d words, want %d for %d rows", what, len(w), bitmapWords(n), n), ErrCorrupt)
	}
	if n%64 != 0 && len(w) > 0 {
		if w[len(w)-1]>>(uint(n)&63) != 0 {
			return d.err(what+": bitmap has bits set beyond row count", ErrCorrupt)
		}
	}
	return nil
}

func popcount(w []uint64) int {
	n := 0
	for _, v := range w {
		for ; v != 0; v &= v - 1 {
			n++
		}
	}
	return n
}

// sortedPersonIDs returns the corpus person IDs sorted ascending — the
// canonical row order of the persons section and the index space person
// references encode against.
func sortedPersonIDs(d *dataset.Dataset) []string {
	ids := make([]string, 0, len(d.Persons))
	for id := range d.Persons {
		ids = append(ids, string(id))
	}
	sort.Strings(ids)
	return ids
}

// --- persons ----------------------------------------------------------

func encodePersons(d *dataset.Dataset, ids []string) []byte {
	e := &enc{}
	n := len(ids)
	e.uvarint(uint64(n))
	e.strCol(ids)

	names := make([]string, n)
	forenames := make([]string, n)
	emails := make([]string, n)
	trueGenders := make([]int64, n)
	genders := make([]int64, n)
	methods := make([]int64, n)
	sectors := make([]int64, n)
	affilDict := newDictBuilder()
	affilCodes := make([]int32, n)
	countryDict := newDictBuilder()
	countryCodes := make([]int32, n)
	hasGS := make([]uint64, bitmapWords(n))
	hasS2 := make([]uint64, bitmapWords(n))
	var gsPubs, gsH, gsI10, gsCit, s2Pubs []int64

	for i, sid := range ids {
		p := d.Persons[dataset.PersonID(sid)]
		names[i] = p.Name
		forenames[i] = p.Forename
		emails[i] = p.Email
		trueGenders[i] = int64(p.TrueGender)
		genders[i] = int64(p.Gender)
		methods[i] = int64(p.AssignMethod)
		sectors[i] = int64(p.Sector)
		affilCodes[i] = affilDict.code(p.Affiliation)
		countryCodes[i] = countryDict.code(p.CountryCode)
		if p.HasGSProfile {
			bitSet(hasGS, i)
			gsPubs = append(gsPubs, int64(p.GS.Publications))
			gsH = append(gsH, int64(p.GS.HIndex))
			gsI10 = append(gsI10, int64(p.GS.I10Index))
			gsCit = append(gsCit, int64(p.GS.Citations))
		}
		if p.HasS2 {
			bitSet(hasS2, i)
			s2Pubs = append(s2Pubs, int64(p.S2Pubs))
		}
	}

	e.strCol(names)
	e.strCol(forenames)
	e.intCol(trueGenders)
	e.intCol(genders)
	e.intCol(methods)
	e.strCol(emails)
	e.strDict(affilDict.vals)
	e.codeCol(affilCodes)
	e.strDict(countryDict.vals)
	e.codeCol(countryCodes)
	e.intCol(sectors)
	e.words(hasGS)
	e.intCol(gsPubs)
	e.intCol(gsH)
	e.intCol(gsI10)
	e.intCol(gsCit)
	e.words(hasS2)
	e.intCol(s2Pubs)
	return e.bytesOut()
}

// decodePersons decodes the persons section into d, returning the sorted
// person ID table for the reference-index decoding of the other sections.
func decodePersons(data []byte, want int, d *dataset.Dataset) ([]string, error) {
	dc := newDec(SectionPersons, data)
	n64, err := dc.uvarint("person count")
	if err != nil {
		return nil, err
	}
	n := int(n64)
	if n != want {
		return nil, dc.err(fmt.Sprintf("person count %d disagrees with meta count %d", n, want), ErrCorrupt)
	}
	ids, err := dc.strCol("person ids", nil)
	if err != nil {
		return nil, err
	}
	if len(ids) != n {
		return nil, dc.err(fmt.Sprintf("person ids column has %d rows, want %d", len(ids), n), ErrCorrupt)
	}
	for i := 1; i < n; i++ {
		if ids[i-1] >= ids[i] {
			return nil, dc.err(fmt.Sprintf("person ids not strictly sorted at row %d", i), ErrCorrupt)
		}
	}
	// Slab-allocate the structs (one allocation instead of one per
	// researcher). Every other column is copied into the slab as soon as
	// it decodes, through one scratch vector per kind reused across
	// columns, so no column outlives its copy.
	people := make([]dataset.Person, n)
	for i, sid := range ids {
		people[i].ID = dataset.PersonID(sid)
	}
	var strs []string
	var ints []int64
	col := func(what string) ([]string, error) {
		if strs, err = dc.strCol(what, strs); err != nil {
			return nil, err
		}
		if len(strs) != n {
			return nil, dc.err(fmt.Sprintf("%s column has %d rows, want %d", what, len(strs), n), ErrCorrupt)
		}
		return strs, nil
	}
	icol := func(what string, min, max int64) ([]int64, error) {
		if ints, err = dc.intCol(what, ints); err != nil {
			return nil, err
		}
		if len(ints) != n {
			return nil, dc.err(fmt.Sprintf("%s column has %d rows, want %d", what, len(ints), n), ErrCorrupt)
		}
		for i, v := range ints {
			if v < min || v > max {
				return nil, dc.err(fmt.Sprintf("%s row %d value %d outside [%d, %d]", what, i, v, min, max), ErrCorrupt)
			}
		}
		return ints, nil
	}
	dictCol := func(what string) ([]string, []int32, error) {
		vals, err := dc.strDict(what + " dictionary")
		if err != nil {
			return nil, nil, err
		}
		codes, err := dc.codeCol(what+" codes", len(vals))
		if err != nil {
			return nil, nil, err
		}
		if len(codes) != n {
			return nil, nil, dc.err(fmt.Sprintf("%s codes column has %d rows, want %d", what, len(codes), n), ErrCorrupt)
		}
		return vals, codes, nil
	}

	names, err := col("person names")
	if err != nil {
		return nil, err
	}
	for i, s := range names {
		people[i].Name = s
	}
	forenames, err := col("person forenames")
	if err != nil {
		return nil, err
	}
	for i, s := range forenames {
		people[i].Forename = s
	}
	trueGenders, err := icol("person true_gender", int64(gender.Unknown), int64(gender.Male))
	if err != nil {
		return nil, err
	}
	for i, v := range trueGenders {
		people[i].TrueGender = gender.Gender(v)
	}
	genders, err := icol("person gender", int64(gender.Unknown), int64(gender.Male))
	if err != nil {
		return nil, err
	}
	for i, v := range genders {
		people[i].Gender = gender.Gender(v)
	}
	methods, err := icol("person assign_method", int64(gender.MethodNone), int64(gender.MethodAutomated))
	if err != nil {
		return nil, err
	}
	for i, v := range methods {
		people[i].AssignMethod = gender.Method(v)
	}
	emails, err := col("person emails")
	if err != nil {
		return nil, err
	}
	for i, s := range emails {
		people[i].Email = s
	}
	affilVals, affilCodes, err := dictCol("person affiliations")
	if err != nil {
		return nil, err
	}
	for i, c := range affilCodes {
		people[i].Affiliation = affilVals[c]
	}
	countryVals, countryCodes, err := dictCol("person countries")
	if err != nil {
		return nil, err
	}
	for i, c := range countryCodes {
		people[i].CountryCode = countryVals[c]
	}
	sectors, err := icol("person sectors", int64(affil.SectorUnknown), int64(affil.GOV))
	if err != nil {
		return nil, err
	}
	for i, v := range sectors {
		people[i].Sector = affil.Sector(v)
	}
	hasGS, err := dc.words("person has_gs bitmap")
	if err != nil {
		return nil, err
	}
	if err := checkBitmap(dc, "person has_gs", hasGS, n); err != nil {
		return nil, err
	}
	// linked lists the people with a profile; the gs_* columns have one
	// row per linked person, in person order.
	linked := make([]*scholar.Profile, 0, popcount(hasGS))
	for i := range people {
		if bitGet(hasGS, i) {
			people[i].HasGSProfile = true
			linked = append(linked, &people[i].GS)
		}
	}
	gcol := func(what string) ([]int64, error) {
		if ints, err = dc.intCol(what, ints); err != nil {
			return nil, err
		}
		if len(ints) != len(linked) {
			return nil, dc.err(fmt.Sprintf("%s column has %d rows, want %d (one per linked profile)", what, len(ints), len(linked)), ErrCorrupt)
		}
		return ints, nil
	}
	gsPubs, err := gcol("person gs_pubs")
	if err != nil {
		return nil, err
	}
	for k, v := range gsPubs {
		linked[k].Publications = int(v)
	}
	gsH, err := gcol("person gs_hindex")
	if err != nil {
		return nil, err
	}
	for k, v := range gsH {
		linked[k].HIndex = int(v)
	}
	gsI10, err := gcol("person gs_i10")
	if err != nil {
		return nil, err
	}
	for k, v := range gsI10 {
		linked[k].I10Index = int(v)
	}
	gsCit, err := gcol("person gs_citations")
	if err != nil {
		return nil, err
	}
	for k, v := range gsCit {
		linked[k].Citations = int(v)
	}
	hasS2, err := dc.words("person has_s2 bitmap")
	if err != nil {
		return nil, err
	}
	if err := checkBitmap(dc, "person has_s2", hasS2, n); err != nil {
		return nil, err
	}
	s2Pubs, err := dc.intCol("person s2_pubs", ints)
	if err != nil {
		return nil, err
	}
	if len(s2Pubs) != popcount(hasS2) {
		return nil, dc.err(fmt.Sprintf("person s2_pubs column has %d rows, want %d (one per linked record)", len(s2Pubs), popcount(hasS2)), ErrCorrupt)
	}
	if err := dc.finished("persons"); err != nil {
		return nil, err
	}

	// The dataset is freshly constructed and empty: presize the person map
	// for the decoded population.
	si := 0
	d.Persons = make(map[dataset.PersonID]*dataset.Person, n)
	for i := range people {
		p := &people[i]
		if bitGet(hasS2, i) {
			p.HasS2 = true
			p.S2Pubs = int(s2Pubs[si])
			si++
		}
		if err := d.AddPerson(p); err != nil {
			return nil, dc.err(err.Error(), ErrCorrupt)
		}
	}
	return ids, nil
}

// dictBuilder interns strings in first-appearance order at encode time.
type dictBuilder struct {
	vals []string
	idx  map[string]int32
}

func newDictBuilder() *dictBuilder {
	return &dictBuilder{idx: make(map[string]int32)}
}

func (b *dictBuilder) code(s string) int32 {
	if c, ok := b.idx[s]; ok {
		return c
	}
	c := int32(len(b.vals))
	b.vals = append(b.vals, s)
	b.idx[s] = c
	return c
}

// --- conferences ------------------------------------------------------

func encodeConferences(d *dataset.Dataset, personIdx map[string]int) []byte {
	e := &enc{}
	e.uvarint(uint64(len(d.Conferences)))
	for _, c := range d.Conferences {
		e.str(string(c.ID))
		e.str(c.Name)
		e.varint(int64(c.Year))
		e.varint(c.Date.Unix())
		e.str(c.CountryCode)
		e.varint(int64(c.Submitted))
		e.f64(c.AcceptanceRate)
		e.str(c.Subfield)
		e.bool(c.DoubleBlind)
		e.bool(c.DiversityChair)
		e.bool(c.CodeOfConduct)
		e.bool(c.Childcare)
		e.f64(c.WomenAttendance)
		for _, roster := range [][]dataset.PersonID{
			c.PCChairs, c.PCMembers, c.Keynotes, c.Panelists, c.SessionChairs,
		} {
			e.uvarint(uint64(len(roster)))
			for _, id := range roster {
				e.uvarint(uint64(personIdx[string(id)]))
			}
		}
	}
	return e.bytesOut()
}

func decodeConferences(data []byte, want int, ids []string, d *dataset.Dataset) error {
	dc := newDec(SectionConferences, data)
	n64, err := dc.uvarint("conference count")
	if err != nil {
		return err
	}
	if int(n64) != want {
		return dc.err(fmt.Sprintf("conference count %d disagrees with meta count %d", n64, want), ErrCorrupt)
	}
	rosterNames := []string{"pc_chairs", "pc_members", "keynotes", "panelists", "session_chairs"}
	for i := 0; i < int(n64); i++ {
		c := &dataset.Conference{}
		var sid string
		if sid, err = dc.str("conference id"); err != nil {
			return err
		}
		c.ID = dataset.ConfID(sid)
		if c.Name, err = dc.str("conference name"); err != nil {
			return err
		}
		year, err := dc.varint("conference year")
		if err != nil {
			return err
		}
		c.Year = int(year)
		sec, err := dc.varint("conference date")
		if err != nil {
			return err
		}
		c.Date = time.Unix(sec, 0).UTC()
		if c.CountryCode, err = dc.str("conference country"); err != nil {
			return err
		}
		submitted, err := dc.varint("conference submitted")
		if err != nil {
			return err
		}
		c.Submitted = int(submitted)
		if c.AcceptanceRate, err = dc.f64("conference acceptance_rate"); err != nil {
			return err
		}
		if c.Subfield, err = dc.str("conference subfield"); err != nil {
			return err
		}
		if c.DoubleBlind, err = dc.bool("conference double_blind"); err != nil {
			return err
		}
		if c.DiversityChair, err = dc.bool("conference diversity_chair"); err != nil {
			return err
		}
		if c.CodeOfConduct, err = dc.bool("conference code_of_conduct"); err != nil {
			return err
		}
		if c.Childcare, err = dc.bool("conference childcare"); err != nil {
			return err
		}
		if c.WomenAttendance, err = dc.f64("conference women_attendance"); err != nil {
			return err
		}
		rosters := make([][]dataset.PersonID, 5)
		for ri := range rosters {
			rosters[ri], err = decodePersonRefs(dc, fmt.Sprintf("conference %q %s roster", sid, rosterNames[ri]), ids)
			if err != nil {
				return err
			}
		}
		c.PCChairs, c.PCMembers, c.Keynotes, c.Panelists, c.SessionChairs =
			rosters[0], rosters[1], rosters[2], rosters[3], rosters[4]
		if err := d.AddConference(c); err != nil {
			return dc.err(err.Error(), ErrCorrupt)
		}
	}
	return dc.finished("conferences")
}

// decodePersonRefs reads a person-reference list: a count then indexes
// into the sorted person ID table, each validated against its bounds.
func decodePersonRefs(dc *dec, what string, ids []string) ([]dataset.PersonID, error) {
	n, err := dc.length(what, 1)
	if err != nil {
		return nil, err
	}
	if n == 0 {
		return nil, nil
	}
	out := make([]dataset.PersonID, n)
	for i := range out {
		ref, err := dc.uvarint(what)
		if err != nil {
			return nil, err
		}
		if ref >= uint64(len(ids)) {
			return nil, dc.err(fmt.Sprintf("%s: person index %d out of range (%d persons)", what, ref, len(ids)), ErrCorrupt)
		}
		out[i] = dataset.PersonID(ids[ref])
	}
	return out, nil
}

// --- papers -----------------------------------------------------------

func encodePapers(d *dataset.Dataset, personIdx map[string]int) []byte {
	e := &enc{}
	n := len(d.Papers)
	e.uvarint(uint64(n))

	paperIDs := make([]string, n)
	titles := make([]string, n)
	confDict := newDictBuilder()
	confCodes := make([]int32, n)
	citations := make([]int64, n)
	hpc := make([]uint64, bitmapWords(n))
	counts := make([]int64, n)
	var refs []int32
	for i, p := range d.Papers {
		paperIDs[i] = string(p.ID)
		titles[i] = p.Title
		confCodes[i] = confDict.code(string(p.Conf))
		citations[i] = int64(p.Citations36)
		if p.HPCTopic {
			bitSet(hpc, i)
		}
		counts[i] = int64(len(p.Authors))
		for _, a := range p.Authors {
			refs = append(refs, int32(personIdx[string(a)]))
		}
	}
	e.strCol(paperIDs)
	e.strCol(titles)
	e.strDict(confDict.vals)
	e.codeCol(confCodes)
	e.intCol(citations)
	e.words(hpc)
	e.intCol(counts)
	e.codeCol(refs)
	return e.bytesOut()
}

func decodePapers(data []byte, want int, ids []string, d *dataset.Dataset) error {
	dc := newDec(SectionPapers, data)
	n64, err := dc.uvarint("paper count")
	if err != nil {
		return err
	}
	n := int(n64)
	if n != want {
		return dc.err(fmt.Sprintf("paper count %d disagrees with meta count %d", n, want), ErrCorrupt)
	}
	paperIDs, err := dc.strCol("paper ids", nil)
	if err != nil {
		return err
	}
	titles, err := dc.strCol("paper titles", nil)
	if err != nil {
		return err
	}
	if len(paperIDs) != n || len(titles) != n {
		return dc.err(fmt.Sprintf("paper id/title columns have %d/%d rows, want %d", len(paperIDs), len(titles), n), ErrCorrupt)
	}
	confVals, err := dc.strDict("paper conference dictionary")
	if err != nil {
		return err
	}
	confCodes, err := dc.codeCol("paper conference codes", len(confVals))
	if err != nil {
		return err
	}
	citations, err := dc.intCol("paper citations36", nil)
	if err != nil {
		return err
	}
	hpc, err := dc.words("paper hpc_topic bitmap")
	if err != nil {
		return err
	}
	if err := checkBitmap(dc, "paper hpc_topic", hpc, n); err != nil {
		return err
	}
	counts, err := dc.intCol("paper author counts", nil)
	if err != nil {
		return err
	}
	if len(confCodes) != n || len(citations) != n || len(counts) != n {
		return dc.err(fmt.Sprintf("paper columns have %d/%d/%d rows, want %d", len(confCodes), len(citations), len(counts), n), ErrCorrupt)
	}
	total := 0
	for i, c := range counts {
		if c < 0 || c > int64(len(ids)) {
			return dc.err(fmt.Sprintf("paper row %d author count %d outside [0, %d]", i, c, len(ids)), ErrCorrupt)
		}
		total += int(c)
	}
	refs, err := dc.codeCol("paper author refs", len(ids))
	if err != nil {
		return err
	}
	if len(refs) != total {
		return dc.err(fmt.Sprintf("paper author refs column has %d rows, want %d (sum of counts)", len(refs), total), ErrCorrupt)
	}
	if err := dc.finished("papers"); err != nil {
		return err
	}

	// Slab-allocate the paper structs and the flat author-list arena (two
	// allocations instead of one per paper plus one per author list).
	papers := make([]dataset.Paper, n)
	authors := make([]dataset.PersonID, total)
	off := 0
	for i := 0; i < n; i++ {
		p := &papers[i]
		*p = dataset.Paper{
			ID:          dataset.PaperID(paperIDs[i]),
			Conf:        dataset.ConfID(confVals[confCodes[i]]),
			Title:       titles[i],
			HPCTopic:    bitGet(hpc, i),
			Citations36: int(citations[i]),
		}
		if c := int(counts[i]); c > 0 {
			p.Authors = authors[off : off+c : off+c]
			for j := 0; j < c; j++ {
				p.Authors[j] = dataset.PersonID(ids[refs[off+j]])
			}
			off += c
		}
		if err := d.AddPaper(p); err != nil {
			return dc.err(err.Error(), ErrCorrupt)
		}
	}
	return nil
}
