// Package rpc is the packetrelease fixture for the control plane's
// pooled frame: readFrame hands its caller a *[]byte from bufpool, held
// across the in-place parse of the envelope and the message, and every
// path out — parse error, unknown method, success — must Put it once.
package rpc

import (
	"errors"
	"io"

	"repro/internal/bufpool"
)

var errBadEnvelope = errors.New("bad envelope")

// readFrame is the producer: the analyzer keys on its name and package.
func readFrame(r io.Reader) (*[]byte, error) {
	fr := bufpool.Get(4)
	if _, err := io.ReadFull(r, *fr); err != nil {
		bufpool.Put(fr)
		return nil, err
	}
	return fr, nil
}

func parse(frame []byte) (method string, body []byte, err error) {
	if len(frame) == 0 {
		return "", nil, errBadEnvelope
	}
	return string(frame[:1]), frame[1:], nil
}

// serveLoop is the server's shape, clean: the frame is returned on the
// envelope-error path, and after the decode on the paths that found a
// handler and the one that did not.
func serveLoop(r io.Reader, handlers map[string]func([]byte) error) {
	for {
		fr, err := readFrame(r)
		if err != nil {
			return
		}
		method, body, err := parse(*fr)
		if err != nil {
			bufpool.Put(fr)
			return
		}
		var failure error
		if h, ok := handlers[method]; !ok {
			failure = errBadEnvelope
		} else {
			failure = h(body)
		}
		bufpool.Put(fr)
		_ = failure
	}
}

// leakOnParseError forgets the frame when the envelope is malformed.
func leakOnParseError(r io.Reader) error {
	fr, err := readFrame(r)
	if err != nil {
		return err // clean: fr is nil on the error path
	}
	_, _, err = parse(*fr)
	if err != nil {
		return err // want `fr may still be owned on this return path`
	}
	bufpool.Put(fr)
	return nil
}

// leakOnUnknownMethod returns the frame only when a handler ran.
func leakOnUnknownMethod(r io.Reader, handlers map[string]func([]byte) error) error {
	fr, err := readFrame(r)
	if err != nil {
		return err
	}
	method, body, _ := parse(*fr)
	h, ok := handlers[method]
	if !ok {
		return errBadEnvelope // want `fr may still be owned on this return path`
	}
	err = h(body)
	bufpool.Put(fr)
	return err
}

// loopLeak reads the next frame over the last one.
func loopLeak(r io.Reader) {
	for {
		fr, err := readFrame(r) // want `fr rebound while the previous pooled value may still be owned`
		if err != nil {
			return
		}
		_, _, _ = parse(*fr)
	}
}

// parseAfterPut touches the frame after the pool has it back.
func parseAfterPut(r io.Reader) {
	fr, err := readFrame(r)
	if err != nil {
		return
	}
	bufpool.Put(fr)
	_, _, _ = parse(*fr) // want `fr is used after Release/Put returned it to the pool`
}

func discarded(r io.Reader) {
	_, _ = readFrame(r) // want `result of readFrame is discarded without Release/Put`
}
