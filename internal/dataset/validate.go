package dataset

import (
	"errors"
	"fmt"
)

// ErrInvalid wraps all validation failures so callers can errors.Is on it.
var ErrInvalid = errors.New("dataset: invalid")

func invalidf(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrInvalid, fmt.Sprintf(format, args...))
}

// Validate checks referential and value integrity of the whole corpus:
// every referenced person exists, author lists are nonempty and
// duplicate-free, per-conference role rosters are duplicate-free,
// acceptance rates and citation counts are in range, and person records
// are self-consistent. It returns the first violation found.
func (d *Dataset) Validate() error {
	if len(d.Conferences) == 0 {
		return invalidf("no conferences")
	}
	for id, p := range d.Persons {
		if p == nil {
			return invalidf("nil person %q", id)
		}
		if p.ID != id {
			return invalidf("person map key %q does not match ID %q", id, p.ID)
		}
		if p.Name == "" {
			return invalidf("person %q has no name", id)
		}
		if p.HasGSProfile {
			if err := p.GS.Validate(); err != nil {
				return invalidf("person %q: %v", id, err)
			}
		}
		if p.HasS2 && p.S2Pubs < 1 {
			return invalidf("person %q: Semantic Scholar count %d < 1", id, p.S2Pubs)
		}
	}
	seenConf := make(map[ConfID]bool, len(d.Conferences))
	// Membership sets are cleared and reused per roster and per author
	// list rather than allocated for each.
	seen := make(map[PersonID]bool)
	for _, c := range d.Conferences {
		if c == nil || c.ID == "" {
			return invalidf("nil or unidentified conference")
		}
		if seenConf[c.ID] {
			return invalidf("duplicate conference %q", c.ID)
		}
		seenConf[c.ID] = true
		if c.AcceptanceRate <= 0 || c.AcceptanceRate > 1 {
			return invalidf("conference %q acceptance rate %g outside (0, 1]", c.ID, c.AcceptanceRate)
		}
		if c.Year < 1980 || c.Year > 2100 {
			return invalidf("conference %q implausible year %d", c.ID, c.Year)
		}
		for _, r := range []Role{RolePCChair, RolePCMember, RoleKeynote, RolePanelist, RoleSessionChair} {
			clear(seen)
			for _, id := range c.RoleHolders(r) {
				if _, ok := d.Persons[id]; !ok {
					return invalidf("conference %q %s roster references unknown person %q", c.ID, r, id)
				}
				if seen[id] {
					return invalidf("conference %q %s roster repeats person %q", c.ID, r, id)
				}
				seen[id] = true
			}
		}
	}
	seenPaper := make(map[PaperID]bool, len(d.Papers))
	seenAuthor := make(map[PersonID]bool)
	for _, p := range d.Papers {
		if p == nil || p.ID == "" {
			return invalidf("nil or unidentified paper")
		}
		if seenPaper[p.ID] {
			return invalidf("duplicate paper %q", p.ID)
		}
		seenPaper[p.ID] = true
		if !seenConf[p.Conf] {
			return invalidf("paper %q references unknown conference %q", p.ID, p.Conf)
		}
		if len(p.Authors) == 0 {
			return invalidf("paper %q has no authors", p.ID)
		}
		if p.Citations36 < 0 {
			return invalidf("paper %q has negative citations %d", p.ID, p.Citations36)
		}
		clear(seenAuthor)
		for _, a := range p.Authors {
			if _, ok := d.Persons[a]; !ok {
				return invalidf("paper %q references unknown author %q", p.ID, a)
			}
			if seenAuthor[a] {
				return invalidf("paper %q repeats author %q", p.ID, a)
			}
			seenAuthor[a] = true
		}
	}
	return nil
}
