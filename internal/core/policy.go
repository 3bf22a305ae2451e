package core

import (
	"strings"
	"sync"
)

// Action is what the policy enforcer decides for a flow.
type Action uint8

// Policy actions, in increasing priority of interest.
const (
	ActionAllow Action = iota
	ActionPrioritize
	ActionDeprioritize
	ActionRateLimit
	ActionBlock
)

// String names the action.
func (a Action) String() string {
	switch a {
	case ActionPrioritize:
		return "prioritize"
	case ActionDeprioritize:
		return "deprioritize"
	case ActionRateLimit:
		return "ratelimit"
	case ActionBlock:
		return "block"
	default:
		return "allow"
	}
}

// Rule matches flows by domain name. Exactly the scenario the paper opens
// with: block all Zynga traffic while prioritizing Dropbox, both running
// over TLS on shared cloud addresses, where neither DPI nor IP filtering
// can tell them apart.
type Rule struct {
	// Pattern matches an FQDN. "zynga.com" matches the name itself and any
	// subdomain; "*.google.com" matches subdomains only; "mail.google.com"
	// with no wildcard still matches deeper labels (drive semantics follow
	// the suffix rule).
	Pattern string
	Action  Action
}

// Policy is an ordered rule set; the first matching rule wins. Safe for
// concurrent readers once built.
type Policy struct {
	mu    sync.RWMutex
	rules []Rule
	// Decisions counts, per action, how many tag events the policy judged.
	decisions map[Action]uint64
}

// NewPolicy builds a policy from rules (evaluated in order).
func NewPolicy(rules ...Rule) *Policy {
	return &Policy{rules: rules, decisions: make(map[Action]uint64)}
}

// match reports whether pattern covers fqdn.
func match(pattern, fqdn string) bool {
	pattern = strings.ToLower(strings.TrimSpace(pattern))
	fqdn = strings.ToLower(strings.TrimSpace(fqdn))
	if pattern == "" || fqdn == "" {
		return false
	}
	if rest, ok := strings.CutPrefix(pattern, "*."); ok {
		return strings.HasSuffix(fqdn, "."+rest)
	}
	return fqdn == pattern || strings.HasSuffix(fqdn, "."+pattern)
}

// Decide returns the action for a labeled flow. Unlabeled flows are
// allowed: DN-Hunter's coverage limits (P2P, §1) are a documented property,
// not silently blocked traffic.
func (p *Policy) Decide(label string) Action {
	p.mu.Lock()
	defer p.mu.Unlock()
	action := ActionAllow
	for _, r := range p.rules {
		if match(r.Pattern, label) {
			action = r.Action
			break
		}
	}
	p.decisions[action]++
	return action
}

// Decisions snapshots the per-action counters.
func (p *Policy) Decisions() map[Action]uint64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make(map[Action]uint64, len(p.decisions))
	for k, v := range p.decisions {
		out[k] = v
	}
	return out
}
