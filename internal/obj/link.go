package obj

import (
	"fmt"
	"sort"
)

// Placement records where one object section landed in the linked
// image, together with the final addresses of its relocation holes.
// modcrypt uses placements of encrypted members to decrypt exactly the
// non-hole bytes (paper section 4.1).
type Placement struct {
	Object     string
	Section    string
	Addr       uint32
	Size       uint32
	Encrypted  bool
	KeyID      string
	RelocHoles []uint32 // final addresses of 4-byte relocation windows
}

// Image is a fully linked, position-fixed SM32 program or module.
type Image struct {
	TextBase uint32
	Text     []byte
	DataBase uint32
	Data     []byte
	BSSBase  uint32
	BSSSize  uint32
	Entry    uint32
	// Symbols maps every global (and entry-relevant) symbol to its
	// final virtual address.
	Symbols    map[string]uint32
	Placements []Placement
}

// LinkOptions parameterizes a link.
type LinkOptions struct {
	TextBase uint32
	DataBase uint32
	// Entry is the entry symbol; defaults to "_start", falling back to
	// "main" when no "_start" is defined.
	Entry string
}

const memberAlign = 16

func alignUp(v, a uint32) uint32 { return (v + a - 1) &^ (a - 1) }

// Link combines the root objects plus any archive members needed to
// satisfy undefined symbols into a single image. Archive members are
// pulled on demand, classic `ld` semantics: a member is linked in only
// if it defines a symbol some already-linked object references.
func Link(opts LinkOptions, roots []*Object, libs ...*Archive) (*Image, error) {
	if len(roots) == 0 {
		return nil, fmt.Errorf("obj: link: no input objects")
	}
	if opts.TextBase == 0 {
		opts.TextBase = 0x1000
	}
	if opts.DataBase == 0 {
		opts.DataBase = 0x00400000
	}

	// Phase 1: closure over undefined symbols.
	linked := append([]*Object(nil), roots...)
	inSet := map[*Object]bool{}
	defined := map[string]bool{}
	for _, o := range linked {
		inSet[o] = true
		for _, s := range o.Symbols {
			if s.Global {
				defined[s.Name] = true
			}
		}
	}
	indexes := make([]map[string]*Object, len(libs))
	for i, l := range libs {
		indexes[i] = l.Index()
	}
	for changed := true; changed; {
		changed = false
		for _, o := range linked {
			for _, u := range o.Undefined() {
				if defined[u] {
					continue
				}
				for _, idx := range indexes {
					if m := idx[u]; m != nil && !inSet[m] {
						linked = append(linked, m)
						inSet[m] = true
						for _, s := range m.Symbols {
							if s.Global {
								defined[s.Name] = true
							}
						}
						changed = true
						break
					}
				}
			}
		}
	}

	// Phase 2: layout.
	im := &Image{TextBase: opts.TextBase, DataBase: opts.DataBase, Symbols: map[string]uint32{}}
	type memberLayout struct {
		o                  *Object
		textAddr, dataAddr uint32
		bssAddr            uint32
	}
	var layouts []memberLayout
	textCur, dataCur := opts.TextBase, opts.DataBase
	for _, o := range linked {
		textCur = alignUp(textCur, memberAlign)
		dataCur = alignUp(dataCur, memberAlign)
		ml := memberLayout{o: o, textAddr: textCur, dataAddr: dataCur}
		textCur += uint32(len(o.Text))
		dataCur += uint32(len(o.Data))
		layouts = append(layouts, ml)
	}
	// BSS follows data, aligned.
	bssCur := alignUp(dataCur, memberAlign)
	im.BSSBase = bssCur
	for i := range layouts {
		bssCur = alignUp(bssCur, memberAlign)
		layouts[i].bssAddr = bssCur
		bssCur += layouts[i].o.BSSSize
	}
	im.BSSSize = bssCur - im.BSSBase
	im.Text = make([]byte, textCur-opts.TextBase)
	im.Data = make([]byte, dataCur-opts.DataBase)
	for _, ml := range layouts {
		copy(im.Text[ml.textAddr-opts.TextBase:], ml.o.Text)
		copy(im.Data[ml.dataAddr-opts.DataBase:], ml.o.Data)
	}

	// Phase 3: symbol table (globals; duplicates are an error).
	globalOwner := map[string]string{}
	symAddr := func(ml memberLayout, s *Symbol) uint32 {
		switch s.Section {
		case "text":
			return ml.textAddr + s.Offset
		case "data":
			return ml.dataAddr + s.Offset
		case "bss":
			return ml.bssAddr + s.Offset
		}
		return 0
	}
	for _, ml := range layouts {
		for i := range ml.o.Symbols {
			s := &ml.o.Symbols[i]
			if !s.Global {
				continue
			}
			if owner, dup := globalOwner[s.Name]; dup {
				return nil, fmt.Errorf("obj: link: duplicate symbol %q in %s and %s",
					s.Name, owner, ml.o.Name)
			}
			globalOwner[s.Name] = ml.o.Name
			im.Symbols[s.Name] = symAddr(ml, s)
		}
	}

	// Phase 4: relocations (local symbols shadow globals within their
	// own object, like section-relative relocs).
	for _, ml := range layouts {
		local := map[string]uint32{}
		for i := range ml.o.Symbols {
			s := &ml.o.Symbols[i]
			local[s.Name] = symAddr(ml, s)
		}
		var holes []uint32
		for _, r := range ml.o.Relocs {
			target, ok := local[r.Symbol]
			if !ok {
				target, ok = im.Symbols[r.Symbol]
			}
			if !ok {
				return nil, fmt.Errorf("obj: link: undefined symbol %q referenced by %s",
					r.Symbol, ml.o.Name)
			}
			v := target + uint32(r.Addend)
			var patchAddr uint32
			var seg []byte
			var segBase uint32
			switch r.Section {
			case "text":
				patchAddr = ml.textAddr + r.Offset
				seg, segBase = im.Text, opts.TextBase
			case "data":
				patchAddr = ml.dataAddr + r.Offset
				seg, segBase = im.Data, opts.DataBase
			default:
				return nil, fmt.Errorf("obj: link: reloc in unknown section %q", r.Section)
			}
			off := patchAddr - segBase
			if int(off)+4 > len(seg) {
				return nil, fmt.Errorf("obj: link: reloc at %#x outside %s segment", patchAddr, r.Section)
			}
			seg[off] = byte(v)
			seg[off+1] = byte(v >> 8)
			seg[off+2] = byte(v >> 16)
			seg[off+3] = byte(v >> 24)
			if r.Section == "text" {
				holes = append(holes, patchAddr)
			}
		}
		sort.Slice(holes, func(i, j int) bool { return holes[i] < holes[j] })
		if len(ml.o.Text) > 0 {
			im.Placements = append(im.Placements, Placement{
				Object: ml.o.Name, Section: "text", Addr: ml.textAddr,
				Size: uint32(len(ml.o.Text)), Encrypted: ml.o.Encrypted,
				KeyID: ml.o.KeyID, RelocHoles: holes,
			})
		}
		if len(ml.o.Data) > 0 {
			im.Placements = append(im.Placements, Placement{
				Object: ml.o.Name, Section: "data", Addr: ml.dataAddr,
				Size: uint32(len(ml.o.Data)),
			})
		}
	}

	// Phase 5: entry point.
	entry := opts.Entry
	if entry == "" {
		if _, ok := im.Symbols["_start"]; ok {
			entry = "_start"
		} else {
			entry = "main"
		}
	}
	e, ok := im.Symbols[entry]
	if !ok {
		return nil, fmt.Errorf("obj: link: entry symbol %q undefined", entry)
	}
	im.Entry = e
	return im, nil
}
