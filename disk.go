package spine

import (
	"errors"
	"fmt"

	"github.com/spine-index/spine/internal/diskindex"
	"github.com/spine-index/spine/internal/pager"
)

// DiskPolicy selects the disk buffer replacement policy.
type DiskPolicy int

const (
	// PolicyLRU evicts the least recently used page.
	PolicyLRU DiskPolicy = iota
	// PolicyTopRetention keeps the top (lowest-numbered) pages resident —
	// the paper's policy, which exploits SPINE's top-heavy link locality.
	PolicyTopRetention
)

// DiskOptions configures a disk-resident index.
type DiskOptions struct {
	// PageSize in bytes (0 = 4096).
	PageSize int
	// BufferPages is the buffer pool capacity in pages (0 = 1024).
	BufferPages int
	// Sync makes page writes synchronous, the paper's §6.2 methodology.
	Sync bool
	// Policy selects the replacement policy.
	Policy DiskPolicy
}

// DiskIOStats counts physical page transfers.
type DiskIOStats struct {
	Reads, Writes int64
}

// DiskIndex is a disk-resident SPINE index: the same structure and
// algorithms as Index, with every node access routed through a buffer
// pool over page files.
type DiskIndex struct {
	s *diskindex.Spine
}

// CreateDisk creates an empty disk index in dir.
func CreateDisk(dir string, opts DiskOptions) (*DiskIndex, error) {
	pol := pager.LRU
	if opts.Policy == PolicyTopRetention {
		pol = pager.TopRetention
	}
	s, err := diskindex.CreateSpine(dir, diskindex.Options{
		PageSize:    opts.PageSize,
		BufferPages: opts.BufferPages,
		Sync:        opts.Sync,
		Policy:      pol,
	})
	if err != nil {
		return nil, err
	}
	return &DiskIndex{s: s}, nil
}

// OpenDisk opens a disk index previously built in dir and flushed or
// closed. The page size comes from the stored metadata; a non-zero
// opts.PageSize must agree with it, failing with ErrPageSizeMismatch
// otherwise (it is the size the page files were written with, so a
// different request cannot be honored). Buffering options come from
// opts.
func OpenDisk(dir string, opts DiskOptions) (*DiskIndex, error) {
	pol := pager.LRU
	if opts.Policy == PolicyTopRetention {
		pol = pager.TopRetention
	}
	s, err := diskindex.OpenSpine(dir, diskindex.Options{
		PageSize:    opts.PageSize,
		BufferPages: opts.BufferPages,
		Sync:        opts.Sync,
		Policy:      pol,
	})
	if err != nil {
		if errors.Is(err, diskindex.ErrPageSizeMismatch) {
			return nil, fmt.Errorf("%w: %w", ErrPageSizeMismatch, err)
		}
		return nil, err
	}
	return &DiskIndex{s: s}, nil
}

// Append extends the index by one character.
func (d *DiskIndex) Append(c byte) error { return d.s.Append(c) }

// AppendString extends the index by every byte of s.
func (d *DiskIndex) AppendString(s []byte) error { return d.s.AppendAll(s) }

// Len returns the number of indexed characters.
func (d *DiskIndex) Len() int { return d.s.Len() }

// Contains reports whether p occurs in the indexed text.
func (d *DiskIndex) Contains(p []byte) (bool, error) { return d.s.Contains(p) }

// Find returns the first-occurrence start offset of p, or -1.
func (d *DiskIndex) Find(p []byte) (int, error) { return d.s.Find(p) }

// FindAll returns every occurrence start offset of p, increasing.
func (d *DiskIndex) FindAll(p []byte) ([]int, error) { return d.s.FindAll(p) }

// IOStats returns the physical I/O counters.
func (d *DiskIndex) IOStats() DiskIOStats {
	st := d.s.IOStats()
	return DiskIOStats{Reads: st.Reads, Writes: st.Writes}
}

// HitRate returns the buffer pool hit rate in [0, 1].
func (d *DiskIndex) HitRate() float64 { return d.s.HitRate() }

// Flush writes all dirty pages to disk.
func (d *DiskIndex) Flush() error { return d.s.Flush() }

// Close flushes and closes the index files.
func (d *DiskIndex) Close() error { return d.s.Close() }
