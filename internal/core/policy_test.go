package core

import (
	"testing"

	"repro/internal/stats"
)

func TestPolicyFirstMatchWins(t *testing.T) {
	p := NewPolicy(
		Rule{Pattern: "mail.google.com", Action: ActionPrioritize},
		Rule{Pattern: "google.com", Action: ActionDeprioritize},
	)
	if a := p.Decide("mail.google.com"); a != ActionPrioritize {
		t.Fatalf("mail = %v", a)
	}
	if a := p.Decide("smtp.mail.google.com"); a != ActionPrioritize {
		t.Fatalf("smtp.mail = %v", a)
	}
	if a := p.Decide("docs.google.com"); a != ActionDeprioritize {
		t.Fatalf("docs = %v", a)
	}
	if a := p.Decide("example.com"); a != ActionAllow {
		t.Fatalf("other = %v", a)
	}
}

func TestPolicySuffixSemantics(t *testing.T) {
	p := NewPolicy(Rule{Pattern: "zynga.com", Action: ActionBlock})
	for _, name := range []string{"zynga.com", "poker.zynga.com", "a.b.zynga.com"} {
		if a := p.Decide(name); a != ActionBlock {
			t.Errorf("Decide(%q) = %v", name, a)
		}
	}
	for _, name := range []string{"notzynga.com", "zynga.com.evil.net", ""} {
		if a := p.Decide(name); a != ActionAllow {
			t.Errorf("Decide(%q) = %v, want allow", name, a)
		}
	}
}

func TestPolicyWildcard(t *testing.T) {
	p := NewPolicy(Rule{Pattern: "*.google.com", Action: ActionBlock})
	if a := p.Decide("mail.google.com"); a != ActionBlock {
		t.Fatalf("subdomain = %v", a)
	}
	if a := p.Decide("google.com"); a != ActionAllow {
		t.Fatalf("apex should not match wildcard: %v", a)
	}
}

func TestPolicyCaseInsensitive(t *testing.T) {
	p := NewPolicy(Rule{Pattern: "Zynga.COM", Action: ActionBlock})
	if a := p.Decide("POKER.zynga.com"); a != ActionBlock {
		t.Fatalf("got %v", a)
	}
}

func TestPolicyDecisionsCounter(t *testing.T) {
	p := NewPolicy(Rule{Pattern: "x.com", Action: ActionBlock})
	p.Decide("x.com")
	p.Decide("y.com")
	p.Decide("z.com")
	d := p.Decisions()
	if d[ActionBlock] != 1 || d[ActionAllow] != 2 {
		t.Fatalf("decisions = %v", d)
	}
}

func TestPolicyAppend(t *testing.T) {
	p := NewPolicy()
	if a := p.Decide("a.com"); a != ActionAllow {
		t.Fatalf("empty policy = %v", a)
	}
	p.Append(Rule{Pattern: "a.com", Action: ActionRateLimit})
	if a := p.Decide("a.com"); a != ActionRateLimit {
		t.Fatalf("after append = %v", a)
	}
}

func TestPolicyDecideSLD(t *testing.T) {
	p := NewPolicy(Rule{Pattern: "zynga.com", Action: ActionBlock})
	if a := p.DecideSLD("static.cdn.zynga.com"); a != ActionBlock {
		t.Fatalf("got %v", a)
	}
}

func TestActionString(t *testing.T) {
	names := map[Action]string{
		ActionAllow: "allow", ActionBlock: "block", ActionPrioritize: "prioritize",
		ActionDeprioritize: "deprioritize", ActionRateLimit: "ratelimit",
	}
	for a, want := range names {
		if a.String() != want {
			t.Fatalf("%v.String() = %q", a, a.String())
		}
	}
}

// Append adds a rule at the end (lowest precedence).
func (p *Policy) Append(r Rule) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.rules = append(p.rules, r)
}

// DecideSLD is Decide against the flow's second-level domain, for policies
// expressed at organization granularity.
func (p *Policy) DecideSLD(label string) Action {
	return p.Decide(stats.SLD(label))
}
