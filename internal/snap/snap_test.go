package snap

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/affil"
	"repro/internal/dataset"
	"repro/internal/gender"
	"repro/internal/query"
	"repro/internal/scholar"
)

// tinyDataset builds a small hand-made corpus exercising every encoded
// attribute: known and unknown genders, present and absent GS/S2 records,
// empty country codes, multiple conferences with full rosters, and papers
// with one and several authors. It is deliberately not *testing-typed so
// the fuzz seed corpus can reuse it.
func tinyDataset() *dataset.Dataset {
	d := dataset.New()
	persons := []*dataset.Person{
		{
			ID: "p1", Name: "Ada One", Forename: "Ada",
			TrueGender: gender.Female, Gender: gender.Female, AssignMethod: gender.MethodManual,
			Email: "ada@uni.edu", Affiliation: "Uni", CountryCode: "US", Sector: affil.EDU,
			HasGSProfile: true, GS: scholar.Profile{Publications: 12, HIndex: 5, I10Index: 3, Citations: 220},
			HasS2: true, S2Pubs: 14,
		},
		{
			ID: "p2", Name: "Bob Two", Forename: "Bob",
			TrueGender: gender.Male, Gender: gender.Male, AssignMethod: gender.MethodAutomated,
			Email: "", Affiliation: "Lab", CountryCode: "DE", Sector: affil.GOV,
			HasS2: true, S2Pubs: 3,
		},
		{
			ID: "p3", Name: "Cy Three", Forename: "Cy",
			TrueGender: gender.Female, Gender: gender.Unknown, AssignMethod: gender.MethodNone,
			Email: "cy@corp.com", Affiliation: "Corp", CountryCode: "", Sector: affil.COM,
			HasGSProfile: true, GS: scholar.Profile{Publications: 2, HIndex: 1, I10Index: 0, Citations: 9},
		},
		{
			ID: "p4", Name: "Di Four", Forename: "Di",
			TrueGender: gender.Female, Gender: gender.Female, AssignMethod: gender.MethodManual,
			Email: "di@uni.edu", Affiliation: "Uni", CountryCode: "US", Sector: affil.EDU,
		},
	}
	for _, p := range persons {
		if err := d.AddPerson(p); err != nil {
			panic(err)
		}
	}
	confs := []*dataset.Conference{
		{
			ID: "SC17", Name: "SC", Year: 2017,
			Date:        time.Date(2017, 11, 13, 0, 0, 0, 0, time.UTC),
			CountryCode: "US", Submitted: 327, AcceptanceRate: 0.187, Subfield: "HPC",
			DoubleBlind: true, DiversityChair: true, CodeOfConduct: true, Childcare: true,
			WomenAttendance: 0.14,
			PCChairs:        []dataset.PersonID{"p1"},
			PCMembers:       []dataset.PersonID{"p2", "p3"},
			Keynotes:        []dataset.PersonID{"p4"},
			Panelists:       []dataset.PersonID{"p1", "p2"},
			SessionChairs:   []dataset.PersonID{"p3"},
		},
		{
			ID: "ISC17", Name: "ISC", Year: 2017,
			Date:        time.Date(2017, 6, 18, 0, 0, 0, 0, time.UTC),
			CountryCode: "DE", Submitted: 120, AcceptanceRate: 0.25, Subfield: "HPC",
			DoubleBlind: true,
			PCMembers:   []dataset.PersonID{"p1"},
		},
	}
	for _, c := range confs {
		if err := d.AddConference(c); err != nil {
			panic(err)
		}
	}
	papers := []*dataset.Paper{
		{ID: "sc17-1", Conf: "SC17", Title: "On Things", Authors: []dataset.PersonID{"p1", "p2", "p4"}, HPCTopic: true, Citations36: 40},
		{ID: "sc17-2", Conf: "SC17", Title: "More Things", Authors: []dataset.PersonID{"p3"}, Citations36: 2},
		{ID: "isc17-1", Conf: "ISC17", Title: "Other Things", Authors: []dataset.PersonID{"p2", "p1"}, HPCTopic: true, Citations36: 7},
	}
	for _, p := range papers {
		if err := d.AddPaper(p); err != nil {
			panic(err)
		}
	}
	if err := d.Validate(); err != nil {
		panic(err)
	}
	return d
}

// tinySnapshot serializes tinyDataset, optionally with frames.
func tinySnapshot(t testing.TB, withFrames bool) []byte {
	t.Helper()
	d := tinyDataset()
	var fs *query.FrameSet
	if withFrames {
		fs = query.NewFrameSet(d)
	}
	var buf bytes.Buffer
	if err := Write(&buf, d, fs); err != nil {
		t.Fatalf("Write: %v", err)
	}
	return buf.Bytes()
}

// datasetCSV renders a dataset through the CSV codecs, giving a canonical
// byte form for equality checks.
func datasetCSV(t *testing.T, d *dataset.Dataset) string {
	t.Helper()
	var buf bytes.Buffer
	if err := d.WritePersonsCSV(&buf); err != nil {
		t.Fatal(err)
	}
	if err := d.WriteConferencesCSV(&buf); err != nil {
		t.Fatal(err)
	}
	if err := d.WritePapersCSV(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

func TestRoundTripCorpus(t *testing.T) {
	data := tinySnapshot(t, false)
	r, err := NewReader(data)
	if err != nil {
		t.Fatalf("NewReader: %v", err)
	}
	if r.HasFrames() {
		t.Error("HasFrames = true for a corpus-only snapshot")
	}
	if p, c, pa := r.Counts(); p != 4 || c != 2 || pa != 3 {
		t.Errorf("Counts = (%d, %d, %d), want (4, 2, 3)", p, c, pa)
	}
	got, err := r.Corpus()
	if err != nil {
		t.Fatalf("Corpus: %v", err)
	}
	if want, have := datasetCSV(t, tinyDataset()), datasetCSV(t, got); want != have {
		t.Errorf("decoded corpus differs from original:\nwant:\n%s\ngot:\n%s", want, have)
	}
}

func TestRoundTripFrames(t *testing.T) {
	d := tinyDataset()
	fs := query.NewFrameSet(d)
	var buf bytes.Buffer
	if err := Write(&buf, d, fs); err != nil {
		t.Fatalf("Write: %v", err)
	}
	r, err := NewReader(buf.Bytes())
	if err != nil {
		t.Fatalf("NewReader: %v", err)
	}
	if !r.HasFrames() {
		t.Fatal("HasFrames = false for a snapshot written with frames")
	}
	got, err := r.Frames()
	if err != nil {
		t.Fatalf("Frames: %v", err)
	}
	q := &query.Query{
		Frame:   query.FrameSlots,
		GroupBy: []query.Key{{Col: "conference"}, {Col: "role"}},
		Aggs:    []query.Agg{{Op: "count", As: "n"}},
		Format:  query.FormatCSV,
	}
	want := runQuery(t, fs, q)
	have := runQuery(t, got, q)
	if want != have {
		t.Errorf("query over decoded frames differs:\nwant:\n%s\ngot:\n%s", want, have)
	}
}

func runQuery(t *testing.T, fs *query.FrameSet, q *query.Query) string {
	t.Helper()
	res, err := query.Run(fs, q)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	body, _, err := res.Encode(q.Format)
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	return string(body)
}

func TestWriteDeterministic(t *testing.T) {
	a := tinySnapshot(t, true)
	b := tinySnapshot(t, true)
	if !bytes.Equal(a, b) {
		t.Error("two writes of the same corpus produced different bytes")
	}
}

func TestBadMagicRejected(t *testing.T) {
	data := tinySnapshot(t, false)
	data[0] ^= 0xff
	_, err := NewReader(data)
	if !errors.Is(err, ErrBadMagic) {
		t.Errorf("err = %v, want ErrBadMagic", err)
	}
}

func TestVersionSkewRejected(t *testing.T) {
	data := tinySnapshot(t, false)
	// A future format version must surface ErrVersion, not a checksum
	// mismatch, even though the flip also breaks the file CRC.
	data[8], data[9] = 0xff, 0x7f
	_, err := NewReader(data)
	if !errors.Is(err, ErrVersion) {
		t.Errorf("err = %v, want ErrVersion", err)
	}
	if err != nil && !strings.Contains(err.Error(), "version") {
		t.Errorf("error %q does not mention the version", err)
	}
}

func TestTruncationsRejected(t *testing.T) {
	data := tinySnapshot(t, true)
	for n := 0; n < len(data); n++ {
		if _, err := NewReader(data[:n]); err == nil {
			t.Fatalf("NewReader accepted a %d-byte prefix of a %d-byte snapshot", n, len(data))
		}
	}
}

// TestEveryByteFlipRejected proves the checksum chain has no blind spot:
// corrupting any single byte of the file must fail validation (and must
// not panic).
func TestEveryByteFlipRejected(t *testing.T) {
	data := tinySnapshot(t, true)
	for i := range data {
		mut := append([]byte(nil), data...)
		mut[i] ^= 0xff
		if _, err := NewReader(mut); err == nil {
			t.Fatalf("NewReader accepted a snapshot with byte %d flipped", i)
		}
	}
}

func TestChecksumErrorNamesSection(t *testing.T) {
	data := tinySnapshot(t, false)
	r, err := NewReader(data)
	if err != nil {
		t.Fatal(err)
	}
	var persons SectionInfo
	for _, s := range r.Sections() {
		if s.Name == SectionPersons {
			persons = s
		}
	}
	if persons.Length == 0 {
		t.Fatal("no persons section in directory")
	}
	mut := append([]byte(nil), data...)
	mut[persons.Offset+persons.Length/2] ^= 0x01
	_, err = NewReader(mut)
	if !errors.Is(err, ErrChecksum) {
		t.Fatalf("err = %v, want ErrChecksum", err)
	}
	var fe *FormatError
	if !errors.As(err, &fe) {
		t.Fatalf("err %T is not a *FormatError", err)
	}
	if fe.Section != SectionPersons {
		t.Errorf("error attributed to section %q, want %q", fe.Section, SectionPersons)
	}
}

func TestFramesAbsent(t *testing.T) {
	r, err := NewReader(tinySnapshot(t, false))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Frames(); !errors.Is(err, ErrNoSection) {
		t.Errorf("Frames err = %v, want ErrNoSection", err)
	}
}

func TestWriterMisuse(t *testing.T) {
	d := tinyDataset()
	var buf bytes.Buffer
	sw := NewWriter(&buf)
	if err := sw.AddCorpus(d); err != nil {
		t.Fatal(err)
	}
	if err := sw.AddCorpus(d); err == nil {
		t.Error("second AddCorpus succeeded")
	}
	if err := sw.AddFrames(nil); err == nil {
		t.Error("AddFrames(nil) succeeded")
	}
	if err := sw.Close(); err != nil {
		t.Fatal(err)
	}
	if err := sw.Close(); err == nil {
		t.Error("second Close succeeded")
	}

	empty := NewWriter(&bytes.Buffer{})
	if err := empty.Close(); err == nil {
		t.Error("Close without AddCorpus succeeded")
	}
}

func TestOpenMissingFile(t *testing.T) {
	if _, _, err := Open(t.TempDir() + "/nope.whpcsnap"); err == nil {
		t.Error("Open of a missing file succeeded")
	}
}

func TestWriteFileAndOpen(t *testing.T) {
	d := tinyDataset()
	path := t.TempDir() + "/tiny" + FileExt
	if err := WriteFile(path, d, query.NewFrameSet(d)); err != nil {
		t.Fatalf("WriteFile: %v", err)
	}
	got, fs, err := Open(path)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if fs == nil {
		t.Error("Open returned nil frames for a snapshot written with frames")
	}
	if want, have := datasetCSV(t, d), datasetCSV(t, got); want != have {
		t.Error("corpus loaded from file differs from original")
	}
}

func TestCorpusFileName(t *testing.T) {
	if got, want := CorpusFileName("default", 2021), "default-2021.whpcsnap"; got != want {
		t.Errorf("CorpusFileName = %q, want %q", got, want)
	}
}

// TestColumnVarintsMatchBinary checks the integer and code column loops,
// which decode short varints inline, against encoding/binary: every value
// on both sides of the one-, two- and three-byte boundaries and the int64
// extremes round-trips, a column cut anywhere inside its last value is
// rejected as truncated, and an overlong encoding is rejected rather than
// decoded.
func TestColumnVarintsMatchBinary(t *testing.T) {
	var ints []int64
	var codes []int32
	for _, v := range []int64{0, 1, 63, 64, 127, 128, 8191, 8192, 16383, 16384, 1 << 21, 1<<31 - 1} {
		ints = append(ints, v, -v, -v-1)
		codes = append(codes, int32(v))
	}
	ints = append(ints, math.MaxInt64, math.MinInt64)

	e := &enc{}
	e.intCol(ints)
	d := newDec("test", e.bytesOut())
	got, err := d.intCol("ints", nil)
	if err != nil || !slices.Equal(got, ints) || d.remaining() != 0 {
		t.Fatalf("intCol = %v, %v (remaining %d), want %v", got, err, d.remaining(), ints)
	}
	e = &enc{}
	e.codeCol(codes)
	d = newDec("test", e.bytesOut())
	gotCodes, err := d.codeCol("codes", 1<<31)
	if err != nil || !slices.Equal(gotCodes, codes) || d.remaining() != 0 {
		t.Fatalf("codeCol = %v, %v (remaining %d), want %v", gotCodes, err, d.remaining(), codes)
	}

	// Cut a one-value column inside its value: 16384 takes three bytes.
	for _, v := range []int64{64, 8192, math.MinInt64} {
		e = &enc{}
		e.intCol([]int64{v})
		full := e.bytesOut()
		for cut := 2; cut < len(full); cut++ {
			if _, err := newDec("test", full[:cut]).intCol("ints", nil); !errors.Is(err, ErrTruncated) {
				t.Errorf("intCol(%d) cut to %d of %d bytes: err %v, want ErrTruncated", v, cut, len(full), err)
			}
		}
	}
	e = &enc{}
	e.codeCol([]int32{16384})
	full := e.bytesOut()
	for cut := 2; cut < len(full); cut++ {
		if _, err := newDec("test", full[:cut]).codeCol("codes", 1<<20); !errors.Is(err, ErrTruncated) {
			t.Errorf("codeCol(16384) cut to %d of %d bytes: err %v, want ErrTruncated", cut, len(full), err)
		}
	}

	// Eleven continuation bytes overflow 64 bits; binary.Uvarint rejects
	// them and so must both loops.
	overlong := append([]byte{1}, bytes.Repeat([]byte{0x80}, 10)...)
	overlong = append(overlong, 0x01)
	if _, n := binary.Uvarint(overlong[1:]); n >= 0 {
		t.Fatalf("binary.Uvarint accepted the overlong encoding (n=%d)", n)
	}
	if _, err := newDec("test", overlong).intCol("ints", nil); !errors.Is(err, ErrTruncated) {
		t.Errorf("intCol overlong: err %v, want ErrTruncated", err)
	}
	if _, err := newDec("test", overlong).codeCol("codes", 1<<20); !errors.Is(err, ErrTruncated) {
		t.Errorf("codeCol overlong: err %v, want ErrTruncated", err)
	}
}
