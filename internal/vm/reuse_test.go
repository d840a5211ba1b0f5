package vm

import (
	"fmt"
	"testing"

	"repro/internal/mem"
)

// A mem.Phys recycles the frames its spaces free, so a frame freed while
// still mapped, or handed out again without zeroing, would show up as
// memory changing under a space that never wrote it. An unbacked world,
// whose pages are never freed, is the reference.

// reuseSeeds are scenarios beyond tlbSeeds that free and reuse frames.
var reuseSeeds = [][]tlbOp{
	// A private page written, forked and unmapped in the parent stays
	// the child's: the unmap drops one of its two references, and only
	// the last may free the frame. The parent's next page must not be
	// that frame.
	{
		{opMap, 1, at(5, 0), 0, 0}, {opWrite32, 1, at(5, 0), 0, 3}, {opFork, 1, 0, 0, 0},
		{opUnmap, 1, at(5, 0), 0, 0}, {opMap, 1, at(5, 0), 0, 0}, {opWrite32, 1, at(5, 0), 0, 9},
		{opRead32, 2, at(5, 0), 0, 0}, {opRead32, 1, at(5, 0), 0, 0},
	},
	// A client forks and exits, then its handle exits and frees the
	// pages the pair shared, and a fresh space takes frames: the child's
	// copies stay intact and the fresh pages read as zero.
	{
		{opWrite32, 1, at(6, 1), 0, 4}, {opFork, 1, 0, 0, 0}, {opUnmapAll, 1, 0, 0, 0},
		{opRead32, 0, at(6, 1), 0, 0}, {opUnmapAll, 0, 0, 0, 0}, {opSpawn, 0, 0, 0, 0},
		{opMap, 3, at(5, 0), 0, 2}, {opWrite32, 3, at(5, 2), 0, 8}, {opWrite32, 3, at(5, 0), 0, 8},
		{opRead32, 3, at(5, 1), 0, 0}, {opRead32, 2, at(6, 1), 0, 0},
	},
}

// spareSeeds recycle entries, amaps and anons, then split, fork and
// alias the recycled ones.
var spareSeeds = [][]tlbOp{
	// A three-page mapping is written and unmapped; the next one takes
	// its entry, amap and anons back, is split by an Unmap, forked
	// copy-on-write, and the parent breaks the COW.
	{
		{opMap, 1, at(5, 0), 0, 2}, {opWrite32, 1, at(5, 0), 0, 1}, {opWrite32, 1, at(5, 2), 0, 2},
		{opUnmap, 1, at(5, 0), 0, 2}, {opMap, 1, at(5, 0), 0, 2},
		{opWrite32, 1, at(5, 0), 0, 3}, {opWrite32, 1, at(5, 1), 0, 4}, {opWrite32, 1, at(5, 2), 0, 5},
		{opUnmap, 1, at(5, 1), 0, 0}, {opFork, 1, 0, 0, 0},
		{opWrite32, 1, at(5, 0), 0, 6}, {opRead32, 2, at(5, 0), 0, 0}, {opRead32, 2, at(5, 2), 0, 0},
		{opRead32, 1, at(5, 1), 0, 0},
	},
	// A recycled amap is aliased into the handle by MapSharedInternal,
	// written through one side and read through the other, then
	// unmapped from one side only.
	{
		{opMap, 1, at(5, 3), 0, 0}, {opWrite32, 1, at(5, 3), 0, 7}, {opUnmapAll, 1, 0, 0, 0},
		{opMapShared, 1, at(5, 3), 0, 0}, {opWrite32, 0, at(5, 3), 0, 8}, {opRead32, 1, at(5, 3), 0, 0},
		{opUnmap, 0, at(5, 3), 0, 0}, {opRead32, 1, at(5, 3), 0, 0}, {opWrite32, 1, at(5, 3), 0, 9},
	},
	// A spawned space takes the spares a torn-down client left, forks
	// and is force-shared with the handle.
	{
		{opWrite32, 1, at(6, 1), 0, 4}, {opUnmapAll, 1, 0, 0, 0}, {opSpawn, 0, 0, 0, 0},
		{opMap, 2, at(2, 0), 0, 1}, {opWrite32, 2, at(2, 1), 0, 5}, {opFork, 2, 0, 0, 0},
		{opForceShare, 0, 0, 0, 2}, {opRead32, 0, at(2, 1), 0, 0}, {opWrite32, 3, at(2, 1), 0, 6},
		{opRead32, 2, at(2, 1), 0, 0},
	},
}

// sparesClean reports a spare object that a live space still reaches,
// or that does not read as freshly built, or "".
func (w *tlbWorld) sparesClean() string {
	if w.phys == nil || w.phys.Spares == nil {
		return ""
	}
	sp := w.phys.Spares.(*spares)
	entries, amaps, anons := map[*Entry]bool{}, map[*amap]bool{}, map[*Anon]bool{}
	for _, s := range w.spaces {
		for _, e := range s.entries {
			entries[e], amaps[e.amap] = true, true
			for _, p := range e.amap.pages {
				anons[p.an] = true
			}
		}
	}
	for _, e := range sp.entries {
		if entries[e] || *e != (Entry{}) {
			return fmt.Sprintf("spare entry %p live or not reset: %+v", e, *e)
		}
	}
	for _, a := range sp.amaps {
		if amaps[a] || len(a.pages) != 0 || a.refs != 0 {
			return fmt.Sprintf("spare amap %p live or not reset: %d pages, %d refs", a, len(a.pages), a.refs)
		}
	}
	for _, an := range sp.anons {
		if anons[an] || *an != (Anon{}) {
			return fmt.Sprintf("spare anon %p live or not reset: %+v", an, *an)
		}
	}
	return ""
}

// reachableFrames counts the distinct frames the world's amaps hold.
func (w *tlbWorld) reachableFrames() uint64 {
	seen := map[*mem.Page]bool{}
	for _, s := range w.spaces {
		for _, e := range s.entries {
			for _, p := range e.amap.pages {
				seen[p.an.Page] = true
			}
		}
	}
	return uint64(len(seen))
}

// FuzzFrameReuse runs one operation sequence in a world backed by a
// recycling mem.Phys, whose spaces also recycle their map entries, amaps
// and anons, and in an unbacked one, whose objects are all fresh. It
// fails on the first difference in an outcome or in the worlds' state,
// when the frames reachable from the backed world's amaps are not
// exactly the frames its allocator has in use, or when a spare object
// is still reachable or does not read as freshly built.
func FuzzFrameReuse(f *testing.F) {
	for _, seeds := range [][][]tlbOp{tlbSeeds, reuseSeeds, spareSeeds} {
		for _, ops := range seeds {
			f.Add(encodeOps(ops...))
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 64*tlbOpSize {
			data = data[:64*tlbOpSize]
		}
		backed, ref := newTLBWorld(t, false, false), newTLBWorld(t, true, false)
		for i := 0; i+tlbOpSize <= len(data); i += tlbOpSize {
			o := tlbOp{data[i], data[i+1], data[i+2], data[i+3], data[i+4]}
			got, want := backed.apply(o), ref.apply(o)
			if got != want {
				t.Fatalf("op %d %+v: backed %q, unbacked %q", i/tlbOpSize, o, got, want)
			}
			if got, want := backed.state(), ref.state(); got != want {
				t.Fatalf("op %d %+v: state differs\nbacked:\n%sunbacked:\n%s", i/tlbOpSize, o, got, want)
			}
			if got, want := backed.reachableFrames(), backed.phys.InUse(); got != want {
				t.Fatalf("op %d %+v: %d frames reachable, %d in use", i/tlbOpSize, o, got, want)
			}
			if msg := backed.sparesClean(); msg != "" {
				t.Fatalf("op %d %+v: %s", i/tlbOpSize, o, msg)
			}
		}
	})
}
