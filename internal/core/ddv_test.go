package core

import "testing"

func TestDDVCloneIndependent(t *testing.T) {
	d := DDV{1, 2, 3}
	c := d.Clone()
	c[0] = 99
	if d[0] != 1 {
		t.Fatal("Clone shares backing storage")
	}
	if !d.Equal(DDV{1, 2, 3}) {
		t.Fatal("original mutated")
	}
}

func TestDDVEqual(t *testing.T) {
	if (DDV{1, 2}).Equal(DDV{1, 2, 3}) {
		t.Fatal("length mismatch compared equal")
	}
	if !(DDV{}).Equal(DDV{}) {
		t.Fatal("empty DDVs unequal")
	}
}

func TestDDVString(t *testing.T) {
	if s := (DDV{1, 0, 3}).String(); s != "[1 0 3]" {
		t.Fatalf("String = %q", s)
	}
}
