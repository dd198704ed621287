package filter

import (
	"reflect"
	"testing"

	"gasf/internal/tuple"
)

// TestRecycleEmptiesEveryField sets every exported field of a pooled set
// to a non-zero value and checks that Recycle leaves each one zero, keeps
// the Members and Picks arrays (emptied and cleared) and the set's home.
// It walks the struct by reflection, so a field added later without a
// reset in Recycle fails here.
func TestRecycleEmptiesEveryField(t *testing.T) {
	p := &setPool{}
	cs := p.take(2)
	tp := new(tuple.Tuple)
	cs.Members = append(cs.Members, tp, tp)
	cs.Picks = append(cs.Picks, tp)
	v := reflect.ValueOf(cs).Elem()
	for i := 0; i < v.NumField(); i++ {
		f, ft := v.Field(i), v.Type().Field(i)
		if !ft.IsExported() || ft.Name == "Members" || ft.Name == "Picks" {
			continue
		}
		switch f.Kind() {
		case reflect.String:
			f.SetString("x")
		case reflect.Int:
			f.SetInt(3)
		case reflect.Bool:
			f.SetBool(true)
		case reflect.Pointer:
			f.Set(reflect.ValueOf(tp))
		default:
			t.Fatalf("field %s of kind %v: teach this test to fill it", ft.Name, f.Kind())
		}
	}
	members, picks := cs.Members, cs.Picks
	cs.Recycle()
	for i := 0; i < v.NumField(); i++ {
		f, ft := v.Field(i), v.Type().Field(i)
		switch ft.Name {
		case "Members", "Picks", "home":
			continue
		}
		if !f.IsZero() {
			t.Errorf("Recycle left %s = %v", ft.Name, f)
		}
	}
	if len(cs.Members) != 0 || len(cs.Picks) != 0 || cap(cs.Members) != cap(members) || cap(cs.Picks) != cap(picks) {
		t.Errorf("Recycle did not keep the emptied arrays: Members %d/%d, Picks %d/%d", len(cs.Members), cap(cs.Members), len(cs.Picks), cap(cs.Picks))
	}
	if members[0] != nil || members[1] != nil || picks[0] != nil {
		t.Error("recycled arrays still pin tuples")
	}
	if cs.home != p || len(p.free) != 1 || p.free[0] != cs {
		t.Error("set did not go back to its pool")
	}
}
