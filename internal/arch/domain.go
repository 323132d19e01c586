// Package arch describes accelerator architectures as hierarchies of
// storage levels over a compute array, in the Timeloop/CiMLoop style, with
// the paper's key extension: every level lives in a signaling domain
// (digital-electrical, analog-electrical, analog-optical, digital-optical),
// and data crossing between domains is charged to explicit converter
// components (DACs, ADCs, modulators, photodiodes, ring programming).
package arch

import "fmt"

// Domain is a signaling domain from the paper's taxonomy.
type Domain uint8

// The four domains. DO (digital-optical) appears in systems like TPU v4's
// optical switch; Albireo uses DE, AE and AO.
const (
	DE Domain = iota // digital electrical
	AE               // analog electrical
	AO               // analog optical
	DO               // digital optical
)

var domainNames = [...]string{"DE", "AE", "AO", "DO"}

// String returns the domain's name.
func (d Domain) String() string {
	if int(d) < len(domainNames) {
		return domainNames[d]
	}
	return fmt.Sprintf("Domain(%d)", uint8(d))
}

// ParseDomain converts a domain name to a Domain.
func ParseDomain(s string) (Domain, error) {
	for i, n := range domainNames {
		if n == s {
			return Domain(i), nil
		}
	}
	return 0, fmt.Errorf("arch: unknown domain %q", s)
}

// Crossing describes a domain boundary X/Y in the paper's notation.
type Crossing struct {
	From, To Domain
}

// String formats the crossing as "DE/AE".
func (c Crossing) String() string { return c.From.String() + "/" + c.To.String() }
