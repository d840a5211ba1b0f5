package vm

import (
	"testing"

	"repro/internal/mem"
)

// Tests for the SecModule special case in Fork: force-shared ranges are
// deep-copied into the child rather than aliased or COW'd.

// mkPair builds a client/handle pair force-shared over [base, base+2
// pages), with one page materialized and holding a marker.
func mkPair(t *testing.T) (client, handle *Space, base uint32) {
	t.Helper()
	base = 0x400000
	client = NewSpace(nil, nil)
	handle = NewSpace(nil, nil)
	if _, err := client.Map(base, 2*mem.PageSize, ProtRW, "data"); err != nil {
		t.Fatal(err)
	}
	if err := client.Write32(base, 0xAA55); err != nil {
		t.Fatal(err)
	}
	if err := ForceShareSpaces(handle, client, base, base+2*mem.PageSize); err != nil {
		t.Fatal(err)
	}
	return client, handle, base
}

func TestForkOfPairDeepCopiesSharedRange(t *testing.T) {
	client, handle, base := mkPair(t)
	child := client.Fork()

	// The child sees the same contents...
	v, err := child.Read32(base)
	if err != nil || v != 0xAA55 {
		t.Fatalf("child read = %#x, %v", v, err)
	}
	// ...on different physical pages.
	if SharesPageWith(client, child, base) {
		t.Fatal("child shares force-shared page with parent")
	}
	// Parent and handle keep sharing.
	if !SharesPageWith(client, handle, base) {
		t.Fatal("fork broke parent/handle sharing")
	}
	// Writes do not cross.
	if err := child.Write32(base, 1); err != nil {
		t.Fatal(err)
	}
	pv, _ := client.Read32(base)
	hv, _ := handle.Read32(base)
	if pv != 0xAA55 || hv != 0xAA55 {
		t.Fatalf("child write leaked: parent %#x handle %#x", pv, hv)
	}
}

func TestForkOfPairChildHasNoPartner(t *testing.T) {
	client, _, _ := mkPair(t)
	child := client.Fork()
	if child.Partner != nil {
		t.Fatal("child inherited the partner link")
	}
}

func TestForkOfPairPrivateEntriesStayCOW(t *testing.T) {
	client, _, _ := mkPair(t)
	// A private entry outside the share range (client text).
	if _, err := client.Map(0x1000, mem.PageSize, ProtRX, "text"); err != nil {
		t.Fatal(err)
	}
	e := client.FindEntry(0x1000)
	e.Prot = ProtRWX
	if err := client.Write32(0x1000, 0x1234); err != nil {
		t.Fatal(err)
	}
	e.Prot = ProtRX
	child := client.Fork()
	// COW: same physical page until a write.
	if !SharesPageWith(client, child, 0x1000) {
		t.Fatal("private entry not COW-shared after fork")
	}
	if !child.FindEntry(0x1000).COW {
		t.Fatal("child text entry not marked COW")
	}
}

func TestForkOfPairUnmaterializedPagesStayLazy(t *testing.T) {
	client, _, base := mkPair(t)
	child := client.Fork()
	// Page 2 of the shared range was never touched: the child's copy
	// must also be lazy (no anon), then demand-zero on access.
	ce := child.FindEntry(base + mem.PageSize)
	if ce == nil {
		t.Fatal("child lacks the entry")
	}
	if ce.Resident() != 1 {
		t.Fatalf("child amap has %d anons, want 1 (only the touched page)", ce.Resident())
	}
	v, err := child.Read32(base + mem.PageSize)
	if err != nil || v != 0 {
		t.Fatalf("lazy page read = %#x, %v", v, err)
	}
}

func TestForkChargesPageCopies(t *testing.T) {
	// With a clock attached, the eager copy charges CostPageCopy per
	// materialized page.
	client := NewSpace(nil, nil)
	handle := NewSpace(nil, nil)
	base := uint32(0x400000)
	if _, err := client.Map(base, 2*mem.PageSize, ProtRW, "data"); err != nil {
		t.Fatal(err)
	}
	if err := client.Write32(base, 1); err != nil {
		t.Fatal(err)
	}
	if err := client.Write32(base+mem.PageSize, 2); err != nil {
		t.Fatal(err)
	}
	if err := ForceShareSpaces(handle, client, base, base+2*mem.PageSize); err != nil {
		t.Fatal(err)
	}
	child := client.Fork()
	// Both pages were materialized: both must be copied.
	for off := uint32(0); off < 2; off++ {
		if SharesPageWith(client, child, base+off*mem.PageSize) {
			t.Fatalf("page %d aliased, want deep copy", off)
		}
	}
}
