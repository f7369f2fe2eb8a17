package dataset

import (
	"errors"
	"fmt"
	"math/rand/v2"
	"slices"
	"sort"
	"testing"
	"time"

	"repro/internal/gender"
)

// tinyCorpus builds a small hand-checked corpus: two conferences, three
// papers, six people.
func tinyCorpus(t *testing.T) *Dataset {
	t.Helper()
	d := New()
	people := []*Person{
		{ID: "alice", Name: "Alice A", Forename: "Alice", TrueGender: gender.Female, Gender: gender.Female, AssignMethod: gender.MethodManual, CountryCode: "US"},
		{ID: "bob", Name: "Bob B", Forename: "Bob", TrueGender: gender.Male, Gender: gender.Male, AssignMethod: gender.MethodManual, CountryCode: "US"},
		{ID: "carol", Name: "Carol C", Forename: "Carol", TrueGender: gender.Female, Gender: gender.Female, AssignMethod: gender.MethodAutomated, CountryCode: "DE"},
		{ID: "dave", Name: "Dave D", Forename: "Dave", TrueGender: gender.Male, Gender: gender.Male, AssignMethod: gender.MethodManual, CountryCode: "JP"},
		{ID: "eve", Name: "Eve E", Forename: "Eve", TrueGender: gender.Female, Gender: gender.Unknown, AssignMethod: gender.MethodNone, CountryCode: "FR"},
		{ID: "frank", Name: "Frank F", Forename: "Frank", TrueGender: gender.Male, Gender: gender.Male, AssignMethod: gender.MethodManual, CountryCode: "GB"},
	}
	for _, p := range people {
		if err := d.AddPerson(p); err != nil {
			t.Fatal(err)
		}
	}
	confs := []*Conference{
		{
			ID: "SC17", Name: "SC", Year: 2017,
			Date:        time.Date(2017, 11, 13, 0, 0, 0, 0, time.UTC),
			CountryCode: "US", Submitted: 327, AcceptanceRate: 0.187,
			DoubleBlind: true, DiversityChair: true, CodeOfConduct: true, Childcare: true,
			PCChairs: []PersonID{"alice"}, PCMembers: []PersonID{"alice", "bob", "carol"},
			Keynotes: []PersonID{"dave"}, SessionChairs: []PersonID{"carol", "frank"},
		},
		{
			ID: "HPDC17", Name: "HPDC", Year: 2017,
			Date:        time.Date(2017, 6, 28, 0, 0, 0, 0, time.UTC),
			CountryCode: "US", Submitted: 100, AcceptanceRate: 0.19,
			PCChairs: []PersonID{"bob"}, PCMembers: []PersonID{"bob", "dave"},
			Panelists: []PersonID{"alice", "bob"},
		},
	}
	for _, c := range confs {
		if err := d.AddConference(c); err != nil {
			t.Fatal(err)
		}
	}
	papers := []*Paper{
		{ID: "p1", Conf: "SC17", Title: "Fast Things", Authors: []PersonID{"alice", "bob", "dave"}, HPCTopic: true, Citations36: 12},
		{ID: "p2", Conf: "SC17", Title: "Slow Things", Authors: []PersonID{"bob", "carol"}, Citations36: 3},
		{ID: "p3", Conf: "HPDC17", Title: "Sideways Things", Authors: []PersonID{"eve", "frank"}, HPCTopic: true, Citations36: 450},
	}
	for _, p := range papers {
		if err := d.AddPaper(p); err != nil {
			t.Fatal(err)
		}
	}
	return d
}

func TestAddRejectsDuplicatesAndDangling(t *testing.T) {
	d := tinyCorpus(t)
	if err := d.AddPerson(&Person{ID: "alice", Name: "Clone"}); err == nil {
		t.Error("duplicate person accepted")
	}
	if err := d.AddPerson(nil); err == nil {
		t.Error("nil person accepted")
	}
	if err := d.AddConference(&Conference{ID: "SC17"}); err == nil {
		t.Error("duplicate conference accepted")
	}
	if err := d.AddConference(nil); err == nil {
		t.Error("nil conference accepted")
	}
	if err := d.AddPaper(&Paper{ID: "p9", Conf: "NOPE"}); err == nil {
		t.Error("paper with unknown conference accepted")
	}
	if err := d.AddPaper(nil); err == nil {
		t.Error("nil paper accepted")
	}
}

func TestLookups(t *testing.T) {
	d := tinyCorpus(t)
	if c, ok := d.Conference("SC17"); !ok || c.Name != "SC" {
		t.Error("Conference lookup failed")
	}
	if _, ok := d.Conference("NOPE"); ok {
		t.Error("unknown conference resolved")
	}
	if p, ok := d.Person("eve"); !ok || p.Gender.Known() {
		t.Error("Person lookup failed or eve has known gender")
	}
	if got := len(d.PapersOf("SC17")); got != 2 {
		t.Errorf("PapersOf(SC17) = %d papers, want 2", got)
	}
	ids := d.ConfIDs()
	if len(ids) != 2 || ids[0] != "SC17" || ids[1] != "HPDC17" {
		t.Errorf("ConfIDs = %v", ids)
	}
}

func TestAuthorPopulations(t *testing.T) {
	d := tinyCorpus(t)
	slots := d.AuthorSlots()
	if len(slots) != 7 { // 3 + 2 + 2 author positions
		t.Errorf("AuthorSlots = %d, want 7", len(slots))
	}
	unique := d.UniqueAuthors()
	if len(unique) != 6 { // bob repeats
		t.Errorf("UniqueAuthors = %d, want 6", len(unique))
	}
	scOnly := d.UniqueAuthors("SC17")
	if len(scOnly) != 4 {
		t.Errorf("UniqueAuthors(SC17) = %d, want 4", len(scOnly))
	}
	leads := d.LeadAuthors()
	if len(leads) != 3 || leads[0] != "alice" || leads[2] != "eve" {
		t.Errorf("LeadAuthors = %v", leads)
	}
	lasts := d.LastAuthors()
	if len(lasts) != 3 || lasts[0] != "dave" || lasts[1] != "carol" || lasts[2] != "frank" {
		t.Errorf("LastAuthors = %v", lasts)
	}
}

func TestRolePopulations(t *testing.T) {
	d := tinyCorpus(t)
	pcSlots := d.RoleSlots(RolePCMember)
	if len(pcSlots) != 5 { // 3 at SC + 2 at HPDC, bob repeats
		t.Errorf("PC slots = %d, want 5", len(pcSlots))
	}
	pcUnique := d.UniqueRoleHolders(RolePCMember)
	if len(pcUnique) != 4 {
		t.Errorf("unique PC = %d, want 4", len(pcUnique))
	}
	if got := d.RoleSlots(RolePCMember, "HPDC17"); len(got) != 2 {
		t.Errorf("HPDC PC slots = %d, want 2", len(got))
	}
	if got := d.RoleSlots(RoleKeynote); len(got) != 1 {
		t.Errorf("keynote slots = %d, want 1", len(got))
	}
	// RoleSlots(RoleAuthor) defers to author slots.
	if got := d.RoleSlots(RoleAuthor); len(got) != 7 {
		t.Errorf("author slots via RoleSlots = %d, want 7", len(got))
	}
	all := d.UniqueAuthorsAndPC()
	if len(all) != 6 {
		t.Errorf("UniqueAuthorsAndPC = %d, want 6", len(all))
	}
}

// mapUnique is the set-then-sort construction uniqueSorted replaced, kept
// as the oracle.
func mapUnique(ids []PersonID) []PersonID {
	seen := make(map[PersonID]bool)
	for _, id := range ids {
		seen[id] = true
	}
	out := make([]PersonID, 0, len(seen))
	for id := range seen {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func TestUniqueSortedMatchesMapOracle(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 4))
	for trial := 0; trial < 500; trial++ {
		ids := make([]PersonID, rng.IntN(60))
		for i := range ids {
			ids[i] = PersonID(fmt.Sprintf("r%d", rng.IntN(25)))
		}
		want := mapUnique(ids)
		if got := uniqueSorted(slices.Clone(ids)); !slices.Equal(got, want) {
			t.Fatalf("uniqueSorted(%v) = %v, want %v", ids, got, want)
		}
	}
}

// TestUniquePopulationsLeaveRostersAlone checks the unique populations
// against the oracle and that sorting them in place never reorders the
// author lists or rosters they are drawn from.
func TestUniquePopulationsLeaveRostersAlone(t *testing.T) {
	d := tinyCorpus(t)
	// Unsorted sources, so an in-place sort of a shared slice would show.
	for _, p := range d.Papers {
		slices.Reverse(p.Authors)
	}
	for _, c := range d.Conferences {
		slices.Reverse(c.PCMembers)
	}
	var before [][]PersonID
	for _, p := range d.Papers {
		before = append(before, slices.Clone(p.Authors))
	}
	for _, c := range d.Conferences {
		before = append(before, slices.Clone(c.PCMembers))
	}
	checks := []struct {
		name       string
		got, slots []PersonID
	}{
		{"authors", d.UniqueAuthors(), d.AuthorSlots()},
		{"SC17 authors", d.UniqueAuthors("SC17"), d.AuthorSlots("SC17")},
		{"PC", d.UniqueRoleHolders(RolePCMember), d.RoleSlots(RolePCMember)},
		{"HPDC17 PC", d.UniqueRoleHolders(RolePCMember, "HPDC17"), d.RoleSlots(RolePCMember, "HPDC17")},
		{"HPDC17 authors", d.UniqueAuthors("HPDC17"), d.AuthorSlots("HPDC17")},
		{"authors and PC", d.UniqueAuthorsAndPC(), append(d.AuthorSlots(), d.RoleSlots(RolePCMember)...)},
	}
	for _, c := range checks {
		if want := mapUnique(c.slots); !slices.Equal(c.got, want) {
			t.Errorf("%s: %v, want %v", c.name, c.got, want)
		}
	}
	var after [][]PersonID
	for _, p := range d.Papers {
		after = append(after, p.Authors)
	}
	for _, c := range d.Conferences {
		after = append(after, c.PCMembers)
	}
	for i := range before {
		if !slices.Equal(after[i], before[i]) {
			t.Errorf("unique populations reordered a source list: %v, was %v", after[i], before[i])
		}
	}
}

func TestHPCPapers(t *testing.T) {
	d := tinyCorpus(t)
	hpc := d.HPCPapers()
	if len(hpc) != 2 {
		t.Errorf("HPCPapers = %d, want 2", len(hpc))
	}
	if got := d.HPCPapers("SC17"); len(got) != 1 || got[0].ID != "p1" {
		t.Errorf("HPCPapers(SC17) = %v", got)
	}
}

func TestCountGenders(t *testing.T) {
	d := tinyCorpus(t)
	gc := d.CountGenders(d.AuthorSlots())
	// Slots: alice(F) bob(M) dave(M) bob(M) carol(F) eve(U) frank(M).
	if gc.Women != 2 || gc.Men != 4 || gc.Unknown != 1 {
		t.Errorf("CountGenders = %+v", gc)
	}
	if gc.Known() != 6 || gc.Total() != 7 {
		t.Errorf("Known/Total = %d/%d", gc.Known(), gc.Total())
	}
	if got := gc.FemaleRatio(); got != 2.0/6 {
		t.Errorf("FemaleRatio = %g", got)
	}
	// Dangling IDs count as unknown.
	gc = d.CountGenders([]PersonID{"ghost"})
	if gc.Unknown != 1 || gc.Known() != 0 {
		t.Errorf("dangling: %+v", gc)
	}
	if (GenderCount{}).FemaleRatio() != 0 {
		t.Error("empty FemaleRatio should be 0")
	}
}

func TestPaperLeadLast(t *testing.T) {
	p := &Paper{Authors: []PersonID{"x", "y", "z"}}
	if p.Lead() != "x" || p.Last() != "z" {
		t.Error("Lead/Last wrong")
	}
	solo := &Paper{Authors: []PersonID{"x"}}
	if solo.Lead() != "x" || solo.Last() != "x" {
		t.Error("single-author Lead/Last must both be the author")
	}
	empty := &Paper{}
	if empty.Lead() != "" || empty.Last() != "" {
		t.Error("empty author list must yield empty IDs")
	}
}

func TestRoleString(t *testing.T) {
	if RoleAuthor.String() != "author" || RolePCMember.String() != "PC member" ||
		RoleSessionChair.String() != "session chair" {
		t.Error("role names wrong")
	}
	if Role(99).String() == "" {
		t.Error("unknown role must still render")
	}
	if len(Roles()) != 6 {
		t.Error("Roles() must list all six roles")
	}
}

func TestValidateAcceptsTinyCorpus(t *testing.T) {
	d := tinyCorpus(t)
	if err := d.Validate(); err != nil {
		t.Fatalf("valid corpus rejected: %v", err)
	}
}

func TestValidateCatchesViolations(t *testing.T) {
	breakers := []struct {
		name  string
		mutil func(*Dataset)
	}{
		{"empty dataset", func(d *Dataset) { d.Conferences = nil }},
		{"person key mismatch", func(d *Dataset) { d.Persons["alice"].ID = "zz" }},
		{"person without name", func(d *Dataset) { d.Persons["bob"].Name = "" }},
		{"invalid GS profile", func(d *Dataset) {
			d.Persons["bob"].HasGSProfile = true
			d.Persons["bob"].GS.HIndex = 10 // > publications 0
		}},
		{"invalid S2 count", func(d *Dataset) {
			d.Persons["bob"].HasS2 = true
			d.Persons["bob"].S2Pubs = 0
		}},
		{"bad acceptance rate", func(d *Dataset) { d.Conferences[0].AcceptanceRate = 1.5 }},
		{"bad year", func(d *Dataset) { d.Conferences[0].Year = 1200 }},
		{"roster dangling person", func(d *Dataset) {
			d.Conferences[0].PCMembers = append(d.Conferences[0].PCMembers, "ghost")
		}},
		{"roster repeat", func(d *Dataset) {
			d.Conferences[0].PCMembers = append(d.Conferences[0].PCMembers, "bob")
		}},
		{"paper no authors", func(d *Dataset) { d.Papers[0].Authors = nil }},
		{"paper negative citations", func(d *Dataset) { d.Papers[0].Citations36 = -1 }},
		{"paper dangling author", func(d *Dataset) { d.Papers[0].Authors[0] = "ghost" }},
		{"paper repeated author", func(d *Dataset) { d.Papers[0].Authors[1] = d.Papers[0].Authors[0] }},
		{"duplicate paper id", func(d *Dataset) { d.Papers[1].ID = d.Papers[0].ID }},
	}
	for _, b := range breakers {
		d := tinyCorpus(t)
		b.mutil(d)
		err := d.Validate()
		if err == nil {
			t.Errorf("%s: validation passed", b.name)
			continue
		}
		if !errors.Is(err, ErrInvalid) {
			t.Errorf("%s: error %v does not wrap ErrInvalid", b.name, err)
		}
	}
}

func TestReindex(t *testing.T) {
	d := tinyCorpus(t)
	// Simulate a loader that fills the slices directly.
	d2 := New()
	d2.Conferences = d.Conferences
	d2.Papers = d.Papers
	d2.Persons = d.Persons
	d2.Reindex()
	if got := len(d2.PapersOf("SC17")); got != 2 {
		t.Errorf("after Reindex, PapersOf(SC17) = %d", got)
	}
	if _, ok := d2.Conference("HPDC17"); !ok {
		t.Error("after Reindex, conference lookup failed")
	}
}
