package wssec

import "encoding/xml"

// ActionGetPolicy is the policy-retrieval action: services publish their
// security policy "along with its interface specification" (§4.3), so a
// requester can learn what mechanisms and credentials are required
// before making a secured request.
const ActionGetPolicy = "wspolicy/Get"

// Mechanism names a supported security mechanism.
type Mechanism string

const (
	// MechSecureConversation is stateful WS-SecureConversation.
	MechSecureConversation Mechanism = "wssc"
	// MechMessageSignature is stateless per-message XML-Signature.
	MechMessageSignature Mechanism = "xmldsig"
)

// PolicyDocument is a service's published security policy (a WS-Policy
// analog). It expresses required mechanisms, acceptable trust roots,
// token formats, and other parameters.
type PolicyDocument struct {
	XMLName xml.Name `xml:"Policy"`
	// Service names the endpoint this policy governs.
	Service string `xml:"Service"`
	// Mechanisms the service supports, in preference order.
	Mechanisms []Mechanism `xml:"Mechanisms>Mechanism"`
	// RequireEncryption demands body confidentiality.
	RequireEncryption bool `xml:"RequireEncryption"`
	// AcceptedTokenTypes lists token formats usable with the service
	// (e.g. "gsi:proxy", "cas:assertion", "krb5:ticket").
	AcceptedTokenTypes []string `xml:"AcceptedTokenTypes>Type"`
	// TrustRoots is the hex-encoded fingerprints of CA certificates the
	// service trusts; a client must hold a credential chaining to one.
	TrustRoots []string `xml:"TrustRoots>Fingerprint"`
}

// Marshal renders the policy as XML.
func (p *PolicyDocument) Marshal() ([]byte, error) {
	return xml.MarshalIndent(p, "", " ")
}
