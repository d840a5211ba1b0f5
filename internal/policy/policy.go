// Package policy implements a KeyNote-style trust-management engine
// (Blaze, Feigenbaum, Ioannidis, Keromytis — RFC 2704), the policy
// definition language the paper names as its intended engine: "Our
// initial design included the use of KeyNote policies as our definition
// language" (section 5). The paper defers non-trivial policies; this
// reproduction implements enough of KeyNote that smod_start_session
// performs a real compliance check, and the policy-complexity ablation
// (the paper's section 5 prediction that complex policy means a
// proportional slowdown) measures real condition evaluation.
//
// An assertion has the RFC 2704 shape:
//
//	keynote-version: 2
//	authorizer: "POLICY"
//	licensees: "alice" || "bob"
//	conditions: app_domain == "secmodule" && module == "libc"
//	            && calls < 1000 -> "allow";
//	signature: "hmac-sha256:9f2c..."
//
// Principals are symbolic names; credential integrity uses HMAC-SHA256
// with per-principal secrets held in a keystore (standing in for the
// public-key signatures of real KeyNote — the trust structure and the
// evaluation semantics are identical, only the crypto primitive is
// swapped, and the kernel is the trusted party holding keys exactly as
// the paper's section 4.4 requires).
//
// Compliance values are an ordered set, least to most permissive, e.g.
// {"_MIN_TRUST", "allow"}. A query computes the compliance value of a
// requesting principal for an action attribute set by depth-first
// delegation from the unconditionally trusted authorizer "POLICY".
package policy

import (
	"fmt"
	"sort"
	"strings"
)

// PolicyPrincipal is the distinguished root authorizer: assertions
// authorized by POLICY are unconditionally trusted (they are the local
// policy, not credentials).
const PolicyPrincipal = "POLICY"

// Standard compliance values present in every ordered value set.
const (
	MinTrust = "_MIN_TRUST"
	MaxTrust = "_MAX_TRUST"
)

// Assertion is one parsed KeyNote assertion.
type Assertion struct {
	// Version is the keynote-version field (always 2 here).
	Version int
	// Authorizer is the principal granting authority.
	Authorizer string
	// Licensees is the principal expression receiving authority.
	Licensees *LicenseeExpr
	// Conditions are evaluated against the action attribute set; the
	// assertion's grant is the value of the first matching clause.
	Conditions []Clause
	// Signature is the raw signature field ("" for unsigned local
	// policy assertions).
	Signature string
	// Source preserves the exact text that was signed.
	Source string
}

// Clause is one conditions clause: a boolean expression and the
// compliance value it yields when true (default MaxTrust).
type Clause struct {
	Expr  Expr
	Value string
}

// LicenseeExpr is a principal expression: a single principal, or a
// conjunction/disjunction of subexpressions. KeyNote's k-of-n threshold
// form is not implemented (the paper's scenarios never need it).
type LicenseeExpr struct {
	Principal string // non-empty for a leaf
	Op        byte   // '&' or '|' for internal nodes
	Kids      []*LicenseeExpr
}

// principals returns the set of principal names in the expression.
func (l *LicenseeExpr) principals() []string {
	seen := map[string]bool{}
	var walk func(*LicenseeExpr)
	var out []string
	walk = func(e *LicenseeExpr) {
		if e == nil {
			return
		}
		if e.Principal != "" {
			if !seen[e.Principal] {
				seen[e.Principal] = true
				out = append(out, e.Principal)
			}
			return
		}
		for _, kid := range e.Kids {
			walk(kid)
		}
	}
	walk(l)
	sort.Strings(out)
	return out
}

// String renders the expression in assertion syntax.
func (l *LicenseeExpr) String() string {
	if l == nil {
		return ""
	}
	if l.Principal != "" {
		return fmt.Sprintf("%q", l.Principal)
	}
	op := " || "
	if l.Op == '&' {
		op = " && "
	}
	parts := make([]string, len(l.Kids))
	for i, kid := range l.Kids {
		parts[i] = kid.String()
	}
	return "(" + strings.Join(parts, op) + ")"
}

// Attributes is the action attribute set of a query (KeyNote's action
// environment): free-form name -> value strings such as app_domain,
// module, function, uid.
type Attributes map[string]string

// Result reports the outcome of a compliance query.
type Result struct {
	// Value is the computed compliance value.
	Value string
	// Index is Value's position in the ordered value set (0 = least
	// permissive).
	Index int
	// ConditionsEvaluated counts expression clauses evaluated during
	// the query; the SecModule layer uses it to charge cycles in
	// proportion to policy complexity (the paper's section 5
	// prediction).
	ConditionsEvaluated int
}

// Query computes the compliance value for requester performing the
// action described by attrs, given the assertion set (policy assertions
// have Authorizer == POLICY; the rest are credentials, which the caller
// must have verified). values is the ordered compliance-value set; it
// must contain at least MinTrust. A requester reachable by no
// delegation chain gets MinTrust. Query is a Querier used once.
func Query(assertions []*Assertion, requester string, attrs Attributes, values []string) (Result, error) {
	var qr Querier
	return qr.Query(assertions, requester, attrs, values)
}

// Querier runs compliance queries one after another and keeps its
// scratch memory (the value order, the per-principal memo and the
// delegation-cycle guard) for the next query, so a long-lived Querier
// answers without allocating. The zero value is ready to use. A
// Querier is not safe for concurrent use.
type Querier struct{ q query }

// Query is the package-level Query, run on qr's scratch memory.
func (qr *Querier) Query(assertions []*Assertion, requester string, attrs Attributes, values []string) (Result, error) {
	q := &qr.q
	if q.ord == nil {
		q.ord, q.memo, q.active = map[string]int{}, map[string]int{}, map[string]bool{}
	}
	clear(q.ord)
	clear(q.memo)
	clear(q.active)
	for i, v := range values {
		q.ord[v] = i
	}
	if _, ok := q.ord[MinTrust]; !ok {
		return Result{}, fmt.Errorf("policy: value set %v lacks %s", values, MinTrust)
	}
	// MaxTrust is implicitly the top of every ordered set.
	if _, ok := q.ord[MaxTrust]; !ok {
		q.ord[MaxTrust] = len(values)
	}

	q.assertions, q.attrs, q.conds = assertions, attrs, 0
	idx := q.principalValue(requester)
	// Keep no reference to the caller's assertions or attributes.
	q.assertions, q.attrs = nil, nil
	// Clamp the implicit MaxTrust to the top declared value.
	if idx >= len(values) {
		idx = len(values) - 1
	}
	return Result{Value: values[idx], Index: idx, ConditionsEvaluated: q.conds}, nil
}

type query struct {
	assertions []*Assertion
	attrs      Attributes
	ord        map[string]int
	memo       map[string]int
	active     map[string]bool // cycle guard
	conds      int
}

// principalValue computes the compliance index delegated to principal p.
func (q *query) principalValue(p string) int {
	if p == PolicyPrincipal {
		return q.ord[MaxTrust]
	}
	if v, ok := q.memo[p]; ok {
		return v
	}
	if q.active[p] {
		return q.ord[MinTrust] // delegation cycle contributes nothing
	}
	q.active[p] = true
	best := q.ord[MinTrust]
	for _, a := range q.assertions {
		if !q.licenseeSatisfied(a.Licensees, p) {
			continue
		}
		authVal := q.principalValue(a.Authorizer)
		grant := q.evalConditions(a)
		v := min(authVal, grant)
		if v > best {
			best = v
		}
	}
	delete(q.active, p)
	q.memo[p] = best
	return best
}

// licenseeSatisfied reports whether principal p alone satisfies the
// licensee expression (other principals are assumed non-cooperating;
// conjunctions therefore require every conjunct to be p, which models
// single-requester queries — the SecModule case).
func (q *query) licenseeSatisfied(l *LicenseeExpr, p string) bool {
	if l == nil {
		return false
	}
	if l.Principal != "" {
		return l.Principal == p
	}
	if l.Op == '&' {
		for _, kid := range l.Kids {
			if !q.licenseeSatisfied(kid, p) {
				return false
			}
		}
		return len(l.Kids) > 0
	}
	for _, kid := range l.Kids {
		if q.licenseeSatisfied(kid, p) {
			return true
		}
	}
	return false
}

// evalConditions returns the compliance index granted by a's conditions
// under the query's attribute set: the value of the first clause whose
// expression is true, MinTrust when none match, MaxTrust when the
// assertion has no conditions at all.
func (q *query) evalConditions(a *Assertion) int {
	if len(a.Conditions) == 0 {
		return q.ord[MaxTrust]
	}
	for _, c := range a.Conditions {
		q.conds++
		v, err := c.Expr.Eval(q.attrs)
		if err != nil {
			continue // RFC 2704: errors make the clause false
		}
		if truthy(v) {
			if idx, ok := q.ord[c.Value]; ok {
				return idx
			}
			return q.ord[MinTrust]
		}
	}
	return q.ord[MinTrust]
}

func truthy(v value) bool {
	if v.isNum {
		return v.num != 0
	}
	return v.str == "true"
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
