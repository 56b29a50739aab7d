// Package errfix exercises the errpropagate analyzer: its import path
// sits under internal/, so constructor, Attach and Commit/Rollback
// errors must be handled.
package errfix

import "fmt"

type Widget struct{}

// NewWidget is a module-local constructor with an error result.
func NewWidget(ok bool) (*Widget, error) {
	if !ok {
		return nil, fmt.Errorf("bad widget")
	}
	return &Widget{}, nil
}

type Tx struct{}

func (*Tx) Commit() error   { return nil }
func (*Tx) Rollback() error { return nil }

// Attach has the shape of a design's Attach: it can refuse.
func (*Widget) Attach(vm int) error { return nil }

func use() {
	w, _ := NewWidget(true) // want `blank identifier discards the error from errfix.NewWidget`
	_ = w

	w2, err := NewWidget(true) // handled: allowed
	_, _ = w2, err

	var tx Tx
	tx.Commit()         // want `discards the error from Tx.Commit`
	defer tx.Rollback() // want `defer discards the error from Tx.Rollback`
	go func() {
		tx.Commit() // want `discards the error from Tx.Commit`
	}()
	if err := tx.Commit(); err != nil { // handled: allowed
		_ = err
	}
	//lint:allow errpropagate rollback after a failed commit is best-effort
	tx.Rollback()

	w.Attach(1)                         // want `discards the error from Widget.Attach`
	_ = w.Attach(2)                     // want `blank identifier discards the error from Widget.Attach`
	if err := w.Attach(3); err != nil { // handled: allowed
		_ = err
	}
}
