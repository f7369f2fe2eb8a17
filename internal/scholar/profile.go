// Package scholar simulates the two bibliometric services the paper draws
// researcher-experience data from: Google Scholar profiles (manually and
// unambiguously linked for 68.3% of researchers; publications, h-index,
// i10-index, citations, all circa 2017) and the Semantic Scholar database
// (100% author coverage, but different data and disambiguation algorithms,
// yielding a low correlation with Google Scholar — r = 0.334 in the paper).
//
// The package provides the pure bibliometric functions (h-index, i10-index)
// with their classical definitions, a Profile type, citation-accrual
// modeling for the paper's 36-month reception analysis, and in-memory
// directories standing in for the two services.
package scholar

import "fmt"

// Profile is a Google-Scholar-style researcher profile snapshot (circa the
// conference date, as the paper collected them).
type Profile struct {
	Publications int // total past publications
	HIndex       int
	I10Index     int
	Citations    int // total citations across all publications
}

// BuildProfile derives a consistent Profile from a per-publication citation
// vector (one entry per past publication).
func BuildProfile(citations []int) Profile {
	return Profile{
		Publications: len(citations),
		HIndex:       HIndex(citations),
		I10Index:     I10Index(citations),
		Citations:    TotalCitations(citations),
	}
}

// Validate checks the internal consistency axioms every real profile obeys.
func (p Profile) Validate() error {
	if p.Publications < 0 || p.HIndex < 0 || p.I10Index < 0 || p.Citations < 0 {
		return fmt.Errorf("scholar: negative profile field: %+v", p)
	}
	if p.HIndex > p.Publications {
		return fmt.Errorf("scholar: h-index %d exceeds publications %d", p.HIndex, p.Publications)
	}
	if p.I10Index > p.Publications {
		return fmt.Errorf("scholar: i10-index %d exceeds publications %d", p.I10Index, p.Publications)
	}
	if p.HIndex*p.HIndex > p.Citations {
		return fmt.Errorf("scholar: h-index %d impossible with %d total citations", p.HIndex, p.Citations)
	}
	return nil
}

// HIndex returns Hirsch's h-index: the largest h such that at least h
// publications have at least h citations each. It tallies publications
// per citation level, folding every level at or above the publication
// count into the top bucket (h cannot exceed it), then walks the levels
// downward: the first level whose running tally reaches it is h. That is
// O(n) with no copy or sort of the input.
func HIndex(citations []int) int {
	n := len(citations)
	atLeast := make([]int, n+1)
	for _, c := range citations {
		if c >= n {
			atLeast[n]++
		} else if c > 0 {
			atLeast[c]++
		}
	}
	total := 0
	for h := n; h > 0; h-- {
		total += atLeast[h]
		if total >= h {
			return h
		}
	}
	return 0
}

// I10Index returns Google Scholar's i10-index: the number of publications
// with at least 10 citations.
func I10Index(citations []int) int {
	n := 0
	for _, c := range citations {
		if c >= 10 {
			n++
		}
	}
	return n
}

// TotalCitations sums a citation vector, treating negative entries as 0
// (defensive: citation counts cannot go negative).
func TotalCitations(citations []int) int {
	total := 0
	for _, c := range citations {
		if c > 0 {
			total += c
		}
	}
	return total
}

// ExperienceBand is the paper's three-way stratification of researchers by
// h-index, "following Hirsch's categorization" (§5.1): novice below 13,
// mid-career 13 to 18 inclusive, experienced above 18.
type ExperienceBand int

const (
	Novice ExperienceBand = iota
	MidCareer
	Experienced
)

// Band thresholds from the paper.
const (
	NoviceMax    = 13 // exclusive upper bound for Novice
	MidCareerMax = 18 // inclusive upper bound for MidCareer
)

// BandOf classifies an h-index into the paper's experience bands.
func BandOf(hIndex int) ExperienceBand {
	switch {
	case hIndex < NoviceMax:
		return Novice
	case hIndex <= MidCareerMax:
		return MidCareer
	default:
		return Experienced
	}
}

// String names the band as the paper does.
func (b ExperienceBand) String() string {
	switch b {
	case Novice:
		return "novice"
	case MidCareer:
		return "mid-career"
	case Experienced:
		return "experienced"
	default:
		return "unknown"
	}
}

// Bands lists the three bands in ascending order, for table rendering.
func Bands() []ExperienceBand { return []ExperienceBand{Novice, MidCareer, Experienced} }
