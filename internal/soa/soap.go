package soa

import (
	"encoding/xml"
	"fmt"
)

// This file implements a working subset of SOAP 1.1: an envelope with
// header and body, and fault reporting. It is the substrate's message
// format. A fabric call builds no envelope, since its consumer reads only
// the sampled observation; a failed call returns this file's Fault.

// soapNS is the SOAP 1.1 envelope namespace.
const soapNS = "http://schemas.xmlsoap.org/soap/envelope/"

// Envelope is a SOAP message.
type Envelope struct {
	XMLName xml.Name `xml:"http://schemas.xmlsoap.org/soap/envelope/ Envelope"`
	Header  *Header  `xml:"Header,omitempty"`
	Body    Body     `xml:"Body"`
}

// Header carries per-message metadata. The fabric uses it for the caller
// identity and a message id — the minimum needed for feedback attribution.
type Header struct {
	MessageID string `xml:"MessageID,omitempty"`
	Caller    string `xml:"Caller,omitempty"`
}

// Body carries either a payload or a fault.
type Body struct {
	Fault   *Fault `xml:"Fault,omitempty"`
	Payload string `xml:"Payload,omitempty"`
	// Operation names the invoked operation, echoed in responses.
	Operation string `xml:"Operation,omitempty"`
}

// Fault is a SOAP fault: how the substrate reports unavailable or failed
// services to consumers.
type Fault struct {
	Code   string `xml:"faultcode"`
	String string `xml:"faultstring"`
}

// Error implements error so a fault can flow through Go error handling.
func (f *Fault) Error() string {
	return fmt.Sprintf("soap fault %s: %s", f.Code, f.String)
}

// NewRequest builds a request envelope.
func NewRequest(messageID, caller, operation, payload string) Envelope {
	return Envelope{
		Header: &Header{MessageID: messageID, Caller: caller},
		Body:   Body{Operation: operation, Payload: payload},
	}
}

// NewFaultResponse builds a fault envelope answering messageID.
func NewFaultResponse(messageID, code, msg string) Envelope {
	return Envelope{
		Header: &Header{MessageID: messageID},
		Body:   Body{Fault: &Fault{Code: code, String: msg}},
	}
}

// Encode renders the envelope as XML.
func (e Envelope) Encode() ([]byte, error) {
	out, err := xml.Marshal(e)
	if err != nil {
		return nil, fmt.Errorf("soa: encode soap envelope: %w", err)
	}
	return append([]byte(xml.Header), out...), nil
}

// DecodeEnvelope parses a SOAP envelope, rejecting documents whose root is
// not a SOAP 1.1 Envelope.
func DecodeEnvelope(data []byte) (Envelope, error) {
	var e Envelope
	if err := xml.Unmarshal(data, &e); err != nil {
		return Envelope{}, fmt.Errorf("soa: decode soap envelope: %w", err)
	}
	if e.XMLName.Space != soapNS || e.XMLName.Local != "Envelope" {
		return Envelope{}, fmt.Errorf("soa: not a SOAP envelope: {%s}%s", e.XMLName.Space, e.XMLName.Local)
	}
	return e, nil
}
