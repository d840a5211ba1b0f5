package core

import (
	"encoding/json"
	"fmt"
	"slices"
	"sort"

	"repro/internal/asm"
	"repro/internal/kern"
	"repro/internal/modcrypt"
	"repro/internal/obj"
	"repro/internal/policy"
)

// HandleTextBase / HandleDataBase are where module text and module-
// private data are linked and mapped — in the handle only, outside the
// force-shared range, so the client can never reach either.
const (
	HandleTextBase = kern.HandleTextBase
	HandleDataBase = 0xA8000000
)

// ModuleSpec is what the toolchain hands to registration: the library
// plus its access policy. It serializes to JSON for the sys_smod_add
// userland registration path.
type ModuleSpec struct {
	Name    string
	Version int
	// Owner is the principal allowed to remove the module (and the
	// signer of owner-issued credentials).
	Owner string
	// Lib is the module's library, possibly encrypted by modcrypt.
	Lib *obj.Archive
	// PolicySrc holds KeyNote assertion sources forming the module's
	// local policy (authorizer POLICY).
	PolicySrc []string
	// ValueSet is the ordered compliance-value set; empty means
	// {_MIN_TRUST, "allow"}.
	ValueSet []string
	// Threshold is the minimum compliance value required to open a
	// session; empty means the top of ValueSet.
	Threshold string
	// CheckPerCall additionally re-evaluates policy on every
	// smod_call, the paper's section 5 prediction knob ("a
	// corresponding slowdown in proportion to the complexity of the
	// required access control check").
	CheckPerCall bool
	// IdempotentFuncs names exported functions whose result depends
	// only on their argument words (no hidden state, no side effects).
	// Callers above the kernel — the fleet's per-shard result cache —
	// may memoize their responses. Names must exist in Lib.
	IdempotentFuncs []string
}

// Marshal serializes the spec for the sys_smod_add path.
func (s *ModuleSpec) Marshal() ([]byte, error) { return json.Marshal(s) }

// UnmarshalModuleSpec parses a serialized spec. Like obj's
// UnmarshalArchive, a JSON null library member is rejected here, at
// the trust boundary, so registration's archive walks can assume every
// member is present (fuzzer-found crash otherwise: the spec embeds its
// archive directly, bypassing UnmarshalArchive's own null check).
func UnmarshalModuleSpec(b []byte) (*ModuleSpec, error) {
	var s ModuleSpec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("core: bad module spec: %w", err)
	}
	if s.Lib != nil {
		for i, m := range s.Lib.Members {
			if m == nil {
				return nil, fmt.Errorf("core: bad module spec: library member %d is null", i)
			}
		}
	}
	return &s, nil
}

// Module is a registered SecModule.
type Module struct {
	ID      int
	Name    string
	Version int
	Owner   string
	Spec    *ModuleSpec

	// Image is the handle-side linked image: receive stub + every
	// library member, at HandleTextBase/HandleDataBase. Encrypted
	// members stay ciphertext here; decryption happens per-session
	// into handle text.
	Image *obj.Image
	// Funcs maps funcID (index) to exported function name; FuncAddrs
	// holds the matching absolute addresses in handle text.
	Funcs     []string
	FuncAddrs []uint32
	FuncIDs   map[string]int

	// Policy state, parsed at registration.
	policyAsserts []*policy.Assertion
	valueSet      []string
	thresholdIdx  int

	// idempotent marks funcIDs the spec declared memoizable.
	idempotent map[int]bool

	// Encrypted reports whether any member is encrypted at rest.
	Encrypted bool
	// plaintext is the decrypted text of an encrypted module, kept
	// from the first session's decrypt for the sessions after it. It
	// goes with the Module when Remove drops it.
	plaintext []byte
}

// FuncID returns the function id for an exported name.
func (m *Module) FuncID(name string) (int, bool) {
	id, ok := m.FuncIDs[name]
	return id, ok
}

// IdempotentFunc reports whether the spec declared funcID's result a
// pure function of its arguments (safe to memoize above the kernel).
func (m *Module) IdempotentFunc(id int) bool { return m.idempotent[id] }

// Register validates a spec, links the handle image, parses the policy,
// and installs the module, returning its m_id. This is the kernel side
// of the paper's "separate tool chain registers the SecModule m with
// the kernel, which must keep track of the registered SecModules."
func (sm *SMod) Register(spec *ModuleSpec) (*Module, error) {
	if spec.Name == "" || spec.Version <= 0 {
		return nil, fmt.Errorf("core: module needs a name and a positive version")
	}
	if spec.Lib == nil || len(spec.Lib.Members) == 0 {
		return nil, fmt.Errorf("core: module %s has no library", spec.Name)
	}
	if _, dup := sm.byNameVer[nameVer{spec.Name, spec.Version}]; dup {
		return nil, fmt.Errorf("core: module %s version %d already registered", spec.Name, spec.Version)
	}

	funcs := spec.Lib.FuncSymbols()
	if len(funcs) == 0 {
		return nil, fmt.Errorf("core: module %s exports no functions", spec.Name)
	}
	sort.Strings(funcs)

	// Link the handle image: the receive stub is the entry; every
	// library member is a root so all funcIDs resolve even when
	// members do not reference each other.
	recv, err := asm.Assemble("smod_recv.s", receiveStubSource())
	if err != nil {
		return nil, fmt.Errorf("core: receive stub: %w", err)
	}
	roots := []*obj.Object{recv}
	for _, mem := range spec.Lib.Members {
		roots = append(roots, mem)
	}
	im, err := obj.Link(obj.LinkOptions{
		TextBase: HandleTextBase,
		DataBase: HandleDataBase,
		Entry:    "_smod_handle_entry",
	}, roots)
	if err != nil {
		return nil, fmt.Errorf("core: linking module %s: %w", spec.Name, err)
	}

	m := &Module{
		ID:      sm.allocMID(),
		Name:    spec.Name,
		Version: spec.Version,
		Owner:   spec.Owner,
		Spec:    spec,
		Image:   im,
		Funcs:   funcs,
		FuncIDs: map[string]int{},
	}
	for id, name := range funcs {
		addr, ok := im.Symbols[name]
		if !ok {
			return nil, fmt.Errorf("core: function %q missing from linked image", name)
		}
		m.FuncIDs[name] = id
		m.FuncAddrs = append(m.FuncAddrs, addr)
	}
	m.Encrypted = modcrypt.EncryptedPlacements(im)
	if m.Encrypted {
		// Every key the image references must be in the kernel keystore.
		for _, pl := range im.Placements {
			if pl.Encrypted && !sm.ModKeys.Has(pl.KeyID) {
				return nil, fmt.Errorf("core: module %s: key %q not in kernel keystore", spec.Name, pl.KeyID)
			}
		}
	}

	m.valueSet = spec.ValueSet
	if len(m.valueSet) == 0 {
		m.valueSet = []string{policy.MinTrust, "allow"}
	}
	m.thresholdIdx = len(m.valueSet) - 1
	if spec.Threshold != "" {
		m.thresholdIdx = -1
		for i, v := range m.valueSet {
			if v == spec.Threshold {
				m.thresholdIdx = i
			}
		}
		if m.thresholdIdx < 0 {
			return nil, fmt.Errorf("core: threshold %q not in value set %v", spec.Threshold, m.valueSet)
		}
	}
	for _, src := range spec.PolicySrc {
		a, err := policy.ParseAssertion(src)
		if err != nil {
			return nil, fmt.Errorf("core: module %s policy: %w", spec.Name, err)
		}
		m.policyAsserts = append(m.policyAsserts, a)
	}
	if len(spec.IdempotentFuncs) > 0 {
		m.idempotent = map[int]bool{}
		for _, name := range spec.IdempotentFuncs {
			id, ok := m.FuncIDs[name]
			if !ok {
				return nil, fmt.Errorf("core: module %s marks unknown function %q idempotent", spec.Name, name)
			}
			m.idempotent[id] = true
		}
	}

	sm.modules[m.ID] = m
	sm.byNameVer[nameVer{m.Name, m.Version}] = m.ID
	sm.mids = append(sm.mids, m.ID) // IDs only grow: mids stays sorted
	return m, nil
}

// Remove unregisters a module and tears down its sessions (kernel-side
// worker for sys_smod_remove).
func (sm *SMod) Remove(m *Module) {
	for key, s := range sm.sessions {
		if key.mid() == m.ID {
			sm.teardown(s, false)
		}
	}
	delete(sm.modules, m.ID)
	delete(sm.byNameVer, nameVer{m.Name, m.Version})
	if i := slices.Index(sm.mids, m.ID); i >= 0 {
		sm.mids = slices.Delete(sm.mids, i, i+1)
	}
}

// receiveStubSource generates the handle-side SM32 assembly: the
// paper's smod_std_handle main loop and smod_stub_receive combined.
// The handle starts here (on its secret stack), announces readiness via
// smod_session_info, then serves dispatch records forever: receive a
// record from the call queue, switch to the shared stack, call f_i,
// restore the client stack words f_i clobbered (Figure 3 step 4),
// switch back to the secret stack, and send the result back.
func receiveStubSource() string {
	return fmt.Sprintf(`
; smod_std_handle / smod_stub_receive (generated)
.text
.global _smod_handle_entry
_smod_handle_entry:
	; phase 1 of the handshake: smod_session_info(0) unmaps our
	; data/heap/stack and force-shares the client's (Figure 1 step 3)
	PUSHI 0
	TRAP %[1]d
	ADDSP 4
recv_loop:
	; msgrcv(callq, callbuf, 20, 0): block for the next dispatch record
	PUSHI 0
	PUSHI 20
	PUSHI %[2]d
	PUSHI %[3]d
	LOAD
	TRAP %[4]d
	ADDSP 16
	; stash the secret SP, then jump onto the shared stack at the
	; record's sharedSP (points at arg1; Figure 3 step 3)
	GETSP
	PUSHI %[5]d
	STORE
	PUSHI %[6]d
	LOAD
	SETSP
	; indirect call to f_i; it sees a normal frame over the client's
	; own argument words
	PUSHI %[7]d
	LOAD
	CALLI
	; back to the secret stack FIRST: the restores below must not use
	; the shared stack as scratch or they would clobber their own work
	PUSHI %[5]d
	LOAD
	SETSP
	; Figure 3 step 4: put back the three client words f_i's frame
	; overwrote, so the client stub returns to the right place
	PUSHI %[8]d
	LOAD
	PUSHI %[6]d
	LOAD
	PUSHI 4
	SUB
	STORE
	PUSHI %[9]d
	LOAD
	PUSHI %[6]d
	LOAD
	PUSHI 8
	SUB
	STORE
	PUSHI %[10]d
	LOAD
	PUSHI %[6]d
	LOAD
	PUSHI 12
	SUB
	STORE
	; build the return message {mtype=2, rv} and msgsnd it
	PUSHI 2
	PUSHI %[11]d
	STORE
	PUSHRV
	PUSHI %[12]d
	STORE
	PUSHI 0
	PUSHI 4
	PUSHI %[11]d
	PUSHI %[13]d
	LOAD
	TRAP %[14]d
	ADDSP 16
	JMP recv_loop
`,
		SysSessionInfoNo,            // [1]
		secretCallBuf,               // [2] msgrcv buffer
		secretCallQ,                 // [3] callq id slot
		kern.SYSmsgrcv,              // [4]
		secretSavedSP,               // [5]
		secretCallBuf+4+recSharedSP, // [6] sharedSP slot in record
		secretCallBuf+4+recFuncAddr, // [7] funcaddr slot
		secretCallBuf+4+recRetAddr,  // [8] retaddr slot
		secretCallBuf+4+recFuncID,   // [9] funcID slot
		secretCallBuf+4+recModID,    // [10] moduleID slot
		secretRetBuf,                // [11] return msg mtype addr
		secretRetBuf+4,              // [12] return msg payload addr
		secretRetQ,                  // [13] retq id slot
		kern.SYSmsgsnd,              // [14]
	)
}

// decryptForHandle returns the module's text bytes ready to map into a
// handle: plaintext modules are used as-is; encrypted modules are
// copied, decrypted with the kernel keystore, and the AES work is
// charged to the clock (section 4.1: "the unencrypted form will be
// available only to the handle process, after the kernel decrypts the
// relevant memory locations in the handle's text portion").
//
// The first session's decrypt is kept on the Module. Every later
// session still looks up each encrypted placement's key, failing as a
// real decrypt would without it, and is charged the same AES work.
func (sm *SMod) decryptForHandle(m *Module) ([]byte, error) {
	if !m.Encrypted {
		return m.Image.Text, nil
	}
	if m.plaintext != nil {
		for _, pl := range m.Image.Placements {
			if pl.Encrypted && pl.Section == "text" {
				if _, err := sm.ModKeys.Key(pl.KeyID); err != nil {
					return nil, err
				}
			}
		}
		sm.kern.Clk.Advance(uint64(modcrypt.DecryptedBlocks(m.Image)) * sm.kern.Costs.AESPerBlock)
		return m.plaintext, nil
	}
	clone := &obj.Image{
		TextBase:   m.Image.TextBase,
		Text:       append([]byte(nil), m.Image.Text...),
		Placements: append([]obj.Placement(nil), m.Image.Placements...),
	}
	if err := modcrypt.DecryptImageText(sm.ModKeys, clone); err != nil {
		return nil, err
	}
	sm.kern.Clk.Advance(uint64(modcrypt.DecryptedBlocks(m.Image)) * sm.kern.Costs.AESPerBlock)
	modcrypt.MarkDecrypted(clone)
	m.plaintext = clone.Text
	return clone.Text, nil
}
