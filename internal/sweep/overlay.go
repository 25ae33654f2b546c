package sweep

import (
	"encoding"
	"encoding/json"
	"reflect"
	"strings"

	"dynamicdf/internal/scenario"
)

// Struct-space resolution. A job's scenario is, by definition, the strict
// parse of the encoded tree its level's patches merge to. Expand gets the
// same scenario without merging, encoding and parsing the whole document
// per level: it decodes each patch onto a copy of the parent level's
// scenario. A struct decode over a scenario and an RFC 7386 merge over its
// document agree on an object patch with no null member whose every member
// is spelled as its field's exact json name and lands objects on structs,
// arrays on slices and scalars on scalars, the elements of its arrays
// included (overlayable), provided the parent's document spells its members
// exactly too (exactNames). Every other patch, every level whose decode
// fails and every level below one of those goes through the tree, so what
// it gives and the errors it reports are unchanged.

var (
	scenarioType = reflect.TypeOf(scenario.Scenario{})
	// fieldIndex maps each struct type a scenario document's objects decode
	// onto, through struct, pointer, slice and array fields, to its fields
	// by exact json name. A type with an embedded field or a repeated json
	// name maps to nil, which no patch or document passes.
	fieldIndex = indexFields(scenarioType, map[reflect.Type]map[string]int{})

	jsonUnmarshaler = reflect.TypeOf((*json.Unmarshaler)(nil)).Elem()
	textUnmarshaler = reflect.TypeOf((*encoding.TextUnmarshaler)(nil)).Elem()
)

func indexFields(t reflect.Type, index map[reflect.Type]map[string]int) map[reflect.Type]map[string]int {
	if _, done := index[t]; done {
		return index
	}
	fields := map[string]int{}
	index[t] = fields
	for i := 0; i < t.NumField(); i++ {
		f := t.Field(i)
		tag := f.Tag.Get("json")
		if !f.IsExported() || tag == "-" {
			continue
		}
		name, _, _ := strings.Cut(tag, ",")
		if name == "" {
			name = f.Name
		}
		if _, dup := fields[name]; dup || f.Anonymous {
			index[t] = nil
			return index
		}
		fields[name] = i
		et := f.Type
		for et.Kind() == reflect.Pointer || et.Kind() == reflect.Slice || et.Kind() == reflect.Array {
			et = et.Elem()
		}
		if st := structType(et); st != nil {
			indexFields(st, index)
		}
	}
	return index
}

// structType returns the struct type json decodes an object onto field by
// field through a field of type t — t itself or what t points to — or nil
// when there is none.
func structType(t reflect.Type) reflect.Type {
	if t.Kind() == reflect.Pointer {
		t = t.Elem()
	}
	if t.Kind() != reflect.Struct || decodesItself(t) {
		return nil
	}
	return t
}

// decodesItself reports whether json decodes a value of type t, or one t
// points to, through a method of its own.
func decodesItself(t reflect.Type) bool {
	if t.Kind() == reflect.Pointer {
		t = t.Elem()
	}
	pt := reflect.PointerTo(t)
	return t.Implements(jsonUnmarshaler) || pt.Implements(jsonUnmarshaler) ||
		t.Implements(textUnmarshaler) || pt.Implements(textUnmarshaler)
}

// overlayable reports whether decoding patch onto a value of struct type t
// gives what merging patch into that value's document and decoding the
// result gives. It requires of every member, at every depth and in every
// element of an array (fits):
//   - its name is its field's exact json name, since decoding also matches
//     names case-insensitively, and two spellings of one field in a merged
//     document let the later in key order win;
//   - it is not null, which merging deletes and decoding leaves alone;
//   - an object lands on a struct or a pointer to one, merged field by
//     field either way; an array on a slice or an array, and a scalar on a
//     scalar field or a pointer to one, replaced wholesale either way;
//   - it lands on no map (decoding keeps the map's other keys and turns a
//     null into a zero), interface, or type that decodes itself.
//
// So no member the decode reads is unknown to the schema, and overlay's
// decode needs no strict decoder to match Parse's.
func overlayable(patch map[string]interface{}, t reflect.Type) bool {
	fields := fieldIndex[t]
	for k, v := range patch {
		i, ok := fields[k]
		if !ok || !fits(v, t.Field(i).Type) {
			return false
		}
	}
	return true
}

// fits reports whether v, a member or array element of an overlayable
// patch, lands on type t by overlayable's rules.
func fits(v interface{}, t reflect.Type) bool {
	if t.Kind() == reflect.Pointer {
		t = t.Elem()
	}
	if decodesItself(t) {
		return false
	}
	switch v := v.(type) {
	case map[string]interface{}:
		return t.Kind() == reflect.Struct && overlayable(v, t)
	case []interface{}:
		if t.Kind() != reflect.Slice && t.Kind() != reflect.Array {
			return false
		}
		for _, e := range v {
			if !fits(e, t.Elem()) {
				return false
			}
		}
		return true
	case nil:
		return false
	}
	switch t.Kind() {
	case reflect.Bool, reflect.String,
		reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
		reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64,
		reflect.Float32, reflect.Float64:
		return true
	}
	return false
}

// exactNames reports whether every member of doc, an object that decodes
// onto struct type t, and of every object below it that decodes onto a
// struct, is named by its field's exact json name. Under a document that
// spells "horizonHours" as "horizonhours", a patch's "horizonHours" sorts
// first in the merged encoding and loses; decoded onto the parsed
// document it would win.
func exactNames(doc map[string]interface{}, t reflect.Type) bool {
	fields := fieldIndex[t]
	for k, v := range doc {
		i, ok := fields[k]
		if !ok {
			return false
		}
		if obj, ok := v.(map[string]interface{}); ok {
			if st := structType(t.Field(i).Type); st != nil && !exactNames(obj, st) {
				return false
			}
		}
	}
	return true
}

// parseTree is the scenario the base tree parses to, or nil when the tree
// does not parse or does not spell its members exactly.
func parseTree(tree interface{}) *scenario.Scenario {
	if doc, ok := tree.(map[string]interface{}); ok && !exactNames(doc, scenarioType) {
		return nil
	}
	b, err := json.Marshal(tree)
	if err != nil {
		return nil
	}
	sc, err := scenario.ParseBytes(b)
	if err != nil {
		return nil
	}
	return sc
}

// overlay decodes encoded, an overlayable patch, onto a shallow copy of sc,
// and returns the copy, or nil when the decode fails. The copy is detached
// first, so the decode writes nothing sc or any other scenario shares. One
// json.Unmarshal is as strict as Parse's decoder here: overlayable admits
// no member unknown to the schema.
func overlay(sc *scenario.Scenario, patch map[string]interface{}, encoded []byte) *scenario.Scenario {
	c := *sc
	detach(reflect.ValueOf(&c).Elem(), patch)
	if json.Unmarshal(encoded, &c) != nil {
		return nil
	}
	return &c
}

// detach readies v, a struct sharing its pointees and slices with another,
// for decoding patch onto it. json decodes through a non-nil pointer into
// the pointee, and an array into a slice's existing elements, in place. So
// detach gives v its own copy of each pointee the patch writes through and
// clears each slice the patch replaces; whatever the patch leaves alone
// stays shared.
func detach(v reflect.Value, patch map[string]interface{}) {
	fields := fieldIndex[v.Type()]
	for k, pv := range patch {
		f := v.Field(fields[k])
		if _, ok := pv.([]interface{}); ok {
			f.SetZero()
			continue
		}
		if f.Kind() == reflect.Pointer {
			if f.IsNil() {
				continue // the decode allocates a fresh pointee
			}
			c := reflect.New(f.Type().Elem())
			c.Elem().Set(f.Elem())
			f.Set(c)
			f = c.Elem()
		}
		if obj, ok := pv.(map[string]interface{}); ok {
			detach(f, obj)
		}
	}
}
