package snap

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"

	"repro/internal/chaos"
	"repro/internal/cite"
	"repro/internal/dataset"
	"repro/internal/query"
)

// Reader parses and validates one snapshot held in memory. NewReader
// performs every integrity check up front — magic, format version,
// directory structure, per-section CRC-32s, and the whole-file checksum —
// so Corpus and Frames decode already-authenticated bytes and can
// attribute any remaining failure (a structural impossibility the
// checksums cannot see, e.g. a count disagreement between sections) to a
// section and offset.
type Reader struct {
	sections []SectionInfo
	payloads map[string][]byte
	meta     metaInfo
	inj      chaos.Injector // consulted at snap.decode; chaos.None in production
}

type metaInfo struct {
	hasFrames                    bool
	isDelta                      bool
	hasCitations                 bool
	persons, conferences, papers int
}

// knownSections is the set of section names this format version defines;
// anything else fails validation (forward compatibility is handled by the
// version field, not by skipping sections).
var knownSections = map[string]bool{
	SectionMeta:        true,
	SectionPersons:     true,
	SectionConferences: true,
	SectionPapers:      true,
	SectionFrames:      true,
	SectionDelta:       true,
	SectionCitations:   true,
}

// NewReader validates data as a complete snapshot and returns a Reader
// over it. The slice is retained; callers must not mutate it afterwards.
func NewReader(data []byte) (*Reader, error) {
	return NewReaderInjected(data, chaos.None)
}

// NewReaderInjected is NewReader with a chaos injector consulted at the
// snap.decode point once per section decode (Corpus and Frames); the
// validation pass itself is not injectable — a reader either proves the
// bytes whole or rejects them. Production callers use NewReader.
func NewReaderInjected(data []byte, inj chaos.Injector) (*Reader, error) {
	if len(data) < headerSize+4 {
		return nil, fileErr(int64(len(data)), fmt.Sprintf("file is %d bytes, shorter than the %d-byte header and checksum trailer", len(data), headerSize+4), ErrTruncated)
	}
	if string(data[:8]) != Magic {
		return nil, fileErr(0, "", ErrBadMagic)
	}
	if v := binary.LittleEndian.Uint16(data[8:10]); v != FormatVersion {
		return nil, fileErr(8, fmt.Sprintf("file has format version %d, this build supports %d", v, FormatVersion), ErrVersion)
	}
	if rsv := binary.LittleEndian.Uint16(data[10:12]); rsv != 0 {
		return nil, fileErr(10, fmt.Sprintf("reserved header bytes are %#x, want 0", rsv), ErrCorrupt)
	}
	count := int(binary.LittleEndian.Uint32(data[12:16]))
	const minEntry = 1 + 8 + 8 + 4
	if count > (len(data)-headerSize-4)/minEntry {
		return nil, fileErr(12, fmt.Sprintf("directory declares %d sections, more than the file could hold", count), ErrTruncated)
	}

	body := int64(len(data) - 4) // everything before the checksum trailer
	r := &Reader{payloads: make(map[string][]byte, count), inj: chaos.Or(inj)}
	off := int64(headerSize)
	for i := 0; i < count; i++ {
		if off >= body {
			return nil, fileErr(off, fmt.Sprintf("directory entry %d starts past the payload region", i), ErrTruncated)
		}
		nameLen := int64(data[off])
		off++
		if off+nameLen+8+8+4 > body {
			return nil, fileErr(off, fmt.Sprintf("directory entry %d overruns the payload region", i), ErrTruncated)
		}
		name := string(data[off : off+nameLen])
		off += nameLen
		secOff := int64(binary.LittleEndian.Uint64(data[off:]))
		off += 8
		secLen := int64(binary.LittleEndian.Uint64(data[off:]))
		off += 8
		secCRC := binary.LittleEndian.Uint32(data[off:])
		off += 4
		if !knownSections[name] {
			return nil, fileErr(off, fmt.Sprintf("directory entry %d names unknown section %q", i, name), ErrCorrupt)
		}
		if _, dup := r.payloads[name]; dup {
			return nil, fileErr(off, fmt.Sprintf("directory repeats section %q", name), ErrCorrupt)
		}
		if secOff < off || secLen < 0 || secOff+secLen > body || secOff+secLen < secOff {
			return nil, fileErr(off, fmt.Sprintf("section %q claims bytes [%d, %d), outside the payload region", name, secOff, secOff+secLen), ErrTruncated)
		}
		r.sections = append(r.sections, SectionInfo{Name: name, Offset: secOff, Length: secLen, CRC32: secCRC})
		r.payloads[name] = data[secOff : secOff+secLen]
	}

	// Per-section checksums first: a bit flip inside a payload is
	// attributed to its section, not reported as a bare file mismatch.
	for _, s := range r.sections {
		if got := crc32.ChecksumIEEE(r.payloads[s.Name]); got != s.CRC32 {
			return nil, &FormatError{
				Section: s.Name,
				Offset:  0,
				Msg:     fmt.Sprintf("payload CRC-32 %#08x does not match directory %#08x", got, s.CRC32),
				Err:     ErrChecksum,
			}
		}
	}
	if got, want := crc32.ChecksumIEEE(data[:body]), binary.LittleEndian.Uint32(data[body:]); got != want {
		return nil, fileErr(body, fmt.Sprintf("whole-file CRC-32 %#08x does not match trailer %#08x", got, want), ErrChecksum)
	}

	for _, name := range []string{SectionMeta, SectionPersons, SectionConferences, SectionPapers} {
		if _, ok := r.payloads[name]; !ok {
			return nil, fileErr(int64(headerSize), fmt.Sprintf("directory has no %q section", name), ErrNoSection)
		}
	}
	if err := r.decodeMeta(); err != nil {
		return nil, err
	}
	_, gotFrames := r.payloads[SectionFrames]
	if gotFrames != r.meta.hasFrames {
		return nil, fileErr(int64(headerSize), fmt.Sprintf("meta frames flag %v disagrees with frames section presence %v", r.meta.hasFrames, gotFrames), ErrCorrupt)
	}
	_, gotDelta := r.payloads[SectionDelta]
	if gotDelta != r.meta.isDelta {
		return nil, fileErr(int64(headerSize), fmt.Sprintf("meta delta flag %v disagrees with delta section presence %v", r.meta.isDelta, gotDelta), ErrCorrupt)
	}
	_, gotCitations := r.payloads[SectionCitations]
	if gotCitations != r.meta.hasCitations {
		return nil, fileErr(int64(headerSize), fmt.Sprintf("meta citations flag %v disagrees with citations section presence %v", r.meta.hasCitations, gotCitations), ErrCorrupt)
	}
	if r.meta.isDelta && r.meta.hasFrames {
		return nil, fileErr(int64(headerSize), "delta snapshot carries a frames section", ErrCorrupt)
	}
	if r.meta.isDelta && r.meta.hasCitations {
		return nil, fileErr(int64(headerSize), "delta snapshot carries a citations section", ErrCorrupt)
	}
	return r, nil
}

// ReadFrom reads a complete snapshot from r and validates it.
func ReadFrom(r io.Reader) (*Reader, error) {
	var buf bytes.Buffer
	// Size hint (bytes.Reader, bytes.Buffer, strings.Reader) avoids the
	// doubling-regrowth copies that io.ReadAll would pay on a large file.
	// ReadFrom wants MinRead free bytes before each read, including the
	// final one that reports EOF, so the hint carries that much slack.
	if l, ok := r.(interface{ Len() int }); ok {
		buf.Grow(l.Len() + bytes.MinRead)
	}
	if _, err := buf.ReadFrom(r); err != nil {
		return nil, fmt.Errorf("snap: reading snapshot: %w", err)
	}
	return NewReader(buf.Bytes())
}

// OpenFile reads and validates the snapshot at path.
func OpenFile(path string) (*Reader, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	r, err := NewReader(data)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return r, nil
}

func (r *Reader) decodeMeta() error {
	dc := newDec(SectionMeta, r.payloads[SectionMeta])
	flags, err := dc.uvarint("flags")
	if err != nil {
		return err
	}
	if flags&^uint64(flagHasFrames|flagIsDelta|flagHasCitations) != 0 {
		return dc.err(fmt.Sprintf("unknown flag bits %#x", flags), ErrCorrupt)
	}
	r.meta.hasFrames = flags&flagHasFrames != 0
	r.meta.isDelta = flags&flagIsDelta != 0
	r.meta.hasCitations = flags&flagHasCitations != 0
	counts := [3]*int{&r.meta.persons, &r.meta.conferences, &r.meta.papers}
	names := [3]string{"person", "conference", "paper"}
	for i, dst := range counts {
		v, err := dc.uvarint(names[i] + " count")
		if err != nil {
			return err
		}
		if v > uint64(1)<<40 {
			return dc.err(fmt.Sprintf("%s count %d is implausible", names[i], v), ErrCorrupt)
		}
		*dst = int(v)
	}
	return dc.finished("meta")
}

// Sections returns the directory entries in file order.
func (r *Reader) Sections() []SectionInfo {
	return append([]SectionInfo(nil), r.sections...)
}

// HasFrames reports whether the snapshot carries a pre-built FrameSet.
func (r *Reader) HasFrames() bool { return r.meta.hasFrames }

// Counts returns the entity counts recorded in the meta section.
func (r *Reader) Counts() (persons, conferences, papers int) {
	return r.meta.persons, r.meta.conferences, r.meta.papers
}

// chaosStep consults the reader's injector before decoding section; any
// armed fault surfaces as a *FormatError naming the section and wrapping
// chaos.ErrInjected, so injected decode failures flow through the same
// typed-error path organic corruption does.
func (r *Reader) chaosStep(section string) error {
	if f := r.inj.Fire(chaos.PointSnapDecode); f != nil {
		return &FormatError{Section: section, Msg: "injected fault", Err: chaos.ErrInjected}
	}
	return nil
}

// Corpus decodes the three entity sections into a validated dataset.
func (r *Reader) Corpus() (*dataset.Dataset, error) {
	d := dataset.New()
	if err := r.chaosStep(SectionPersons); err != nil {
		return nil, err
	}
	ids, err := decodePersons(r.payloads[SectionPersons], r.meta.persons, d)
	if err != nil {
		return nil, err
	}
	if err := r.chaosStep(SectionConferences); err != nil {
		return nil, err
	}
	if err := decodeConferences(r.payloads[SectionConferences], r.meta.conferences, ids, d); err != nil {
		return nil, err
	}
	if err := r.chaosStep(SectionPapers); err != nil {
		return nil, err
	}
	if err := decodePapers(r.payloads[SectionPapers], r.meta.papers, ids, d); err != nil {
		return nil, err
	}
	if err := d.Validate(); err != nil {
		return nil, fmt.Errorf("snap: decoded corpus failed validation: %w", err)
	}
	return d, nil
}

// Frames decodes the pre-built FrameSet. It returns a *FormatError
// wrapping ErrNoSection when the snapshot was written without frames;
// callers that treat frames as optional should check HasFrames first.
func (r *Reader) Frames() (*query.FrameSet, error) {
	payload, ok := r.payloads[SectionFrames]
	if !ok {
		return nil, &FormatError{Section: SectionFrames, Msg: "snapshot was written without frames", Err: ErrNoSection}
	}
	if err := r.chaosStep(SectionFrames); err != nil {
		return nil, err
	}
	return decodeFrames(payload)
}

// Open reads the snapshot at path and decodes its corpus and, when
// present, its frames (nil otherwise). It is the one-call load path the
// Study and whpcd warm-boot integrations use. Every failure — read,
// validation, or decode — is wrapped with the file path, and decode
// failures keep their *FormatError section context underneath.
func Open(path string) (*dataset.Dataset, *query.FrameSet, error) {
	return OpenInjected(path, chaos.None)
}

// OpenInjected is Open with a chaos injector consulted at the snap.read
// point (after the bytes arrive: torn-read faults truncate the buffer,
// every other kind fails the read typed) and at the snap.decode point
// once per decoded section. Production callers use Open.
func OpenInjected(path string, inj chaos.Injector) (*dataset.Dataset, *query.FrameSet, error) {
	d, fs, _, err := OpenCitedInjected(path, inj)
	return d, fs, err
}

// Read decodes a complete snapshot from an io.Reader: the corpus and,
// when present, the frames (nil otherwise).
func Read(rd io.Reader) (*dataset.Dataset, *query.FrameSet, error) {
	r, err := ReadFrom(rd)
	if err != nil {
		return nil, nil, err
	}
	d, fs, _, err := decodeAll(r)
	return d, fs, err
}

func decodeAll(r *Reader) (*dataset.Dataset, *query.FrameSet, *cite.Graph, error) {
	if r.IsDelta() {
		return nil, nil, nil, &FormatError{Section: SectionDelta, Msg: "snapshot is a delta, not a full corpus; apply it through OpenDelta and internal/delta", Err: ErrCorrupt}
	}
	// The frames section decodes concurrently with the corpus: the two
	// payloads are independent and together dominate warm-boot latency.
	// decodeFrames is a pure function of its payload; the frames chaos
	// step still fires on this goroutine after the corpus steps, so a
	// scheduled injector sees the exact hit ordinals of a sequential
	// decode. The citation graph decodes last (it is tiny next to the
	// other sections), keeping pre-citation chaos hit ordinals intact.
	payload, hasFrames := r.payloads[SectionFrames]
	var (
		fs    *query.FrameSet
		fsErr error
	)
	done := make(chan struct{})
	if hasFrames {
		go func() {
			defer close(done)
			fs, fsErr = decodeFrames(payload)
		}()
	} else {
		close(done)
	}
	d, err := r.Corpus()
	if err != nil {
		<-done
		return nil, nil, nil, err
	}
	if hasFrames {
		if err := r.chaosStep(SectionFrames); err != nil {
			<-done
			return nil, nil, nil, err
		}
	}
	<-done
	if fsErr != nil {
		return nil, nil, nil, fsErr
	}
	var g *cite.Graph
	if r.HasCitations() {
		if g, err = r.Citations(); err != nil {
			return nil, nil, nil, err
		}
	}
	return d, fs, g, nil
}
