(* MiniLang interpreter semantics: expressions, control flow, objects,
   inheritance, exceptions, builtins. *)

open Failatom_minilang

let run src = Minilang.run_string src

(* Runs a program consisting of a main around [body] and returns its
   printed output. *)
let run_main body = run (Printf.sprintf "function main() { %s return 0; }" body)

let check_out msg expected body = Alcotest.(check string) msg expected (run_main body)

let test_arithmetic () =
  check_out "add" "7\n" "println(3 + 4);";
  check_out "precedence" "14\n" "println(2 + 3 * 4);";
  check_out "neg" "-5\n" "println(-5);";
  check_out "div mod" "3 1\n" "println(10 / 3 + \" \" + 10 % 3);";
  check_out "string concat" "a1true\n" "println(\"a\" + 1 + true);";
  check_out "comparisons" "true false true\n"
    "println((1 < 2) + \" \" + (2 <= 1) + \" \" + (\"a\" < \"b\"));"

let test_logic () =
  check_out "and or" "false true\n" "println((true && false) + \" \" + (false || true));";
  (* short-circuit: the second operand must not run *)
  check_out "short-circuit and" "ok\n"
    "var a = [1]; if (false && a[9] == 0) { println(\"bad\"); } else { println(\"ok\"); }";
  check_out "short-circuit or" "ok\n"
    "var a = [1]; if (true || a[9] == 0) { println(\"ok\"); }"

let test_control_flow () =
  check_out "while" "0123\n" "var i = 0; while (i < 4) { print(i); i = i + 1; } println(\"\");";
  check_out "for" "02468\n" "for (var i = 0; i < 10; i = i + 2) { print(i); } println(\"\");";
  check_out "break" "01\n" "for (var i = 0; i < 9; i = i + 1) { if (i == 2) { break; } print(i); } println(\"\");";
  check_out "continue" "13\n" "for (var i = 0; i < 5; i = i + 1) { if (i % 2 == 0) { continue; } print(i); } println(\"\");";
  check_out "nested if" "mid\n"
    "var x = 5; if (x < 3) { println(\"low\"); } else if (x < 8) { println(\"mid\"); } else { println(\"high\"); }"

let test_functions_and_recursion () =
  Alcotest.(check string) "recursion" "120\n"
    (run "function fact(n) { if (n <= 1) { return 1; } return n * fact(n - 1); } function main() { println(fact(5)); return 0; }");
  Alcotest.(check string) "mutual recursion" "true false\n"
    (run
       {|
function isEven(n) { if (n == 0) { return true; } return isOdd(n - 1); }
function isOdd(n) { if (n == 0) { return false; } return isEven(n - 1); }
function main() { println(isEven(10) + " " + isEven(7)); return 0; }
|})

let test_objects () =
  Alcotest.(check string) "fields and methods" "5\n10\n"
    (run
       {|
class Point {
  field x;
  method init(x) { this.x = x; return this; }
  method double() { this.x = this.x * 2; return this.x; }
}
function main() {
  var p = new Point(5);
  println(p.x);
  println(p.double());
  return 0;
}
|})

let test_aliasing () =
  check_out "refs are aliases" "9\n" "var a = [0]; var b = a; b[0] = 9; println(a[0]);";
  check_out "equality is identity" "false true\n"
    "var a = [1]; var b = [1]; var c = a; println((a == b) + \" \" + (a == c));"

let test_inheritance_and_super () =
  Alcotest.(check string) "override + super" "base:3\nbase:6 sub:6\n"
    (run
       {|
class Base {
  field v;
  method init(v) { this.v = v; return this; }
  method show() { return "base:" + this.v; }
}
class Sub extends Base {
  method init(v) { super.init(v * 2); return this; }
  method show() { return super.show() + " sub:" + this.v; }
}
function main() {
  var b = new Base(3);
  var s = new Sub(3);
  println(b.show());
  println(s.show());
  return 0;
}
|})

let test_dynamic_dispatch () =
  Alcotest.(check string) "dispatch through base variable" "sub\n"
    (run
       {|
class Base {
  method kind() { return "base"; }
  method describe() { return this.kind(); }
}
class Sub extends Base {
  method kind() { return "sub"; }
}
function main() { println(new Sub().describe()); return 0; }
|})

let test_exceptions () =
  check_out "catch by class" "caught\n"
    "try { throw new IllegalStateException(\"x\"); } catch (IllegalStateException e) { println(\"caught\"); }";
  check_out "catch by superclass" "rt\n"
    "try { throw new NullPointerException(\"x\"); } catch (RuntimeException e) { println(\"rt\"); }";
  check_out "first matching handler" "specific\n"
    "try { throw new NullPointerException(\"x\"); } catch (NullPointerException e) { println(\"specific\"); } catch (Throwable t) { println(\"general\"); }";
  check_out "message readable" "boom\n"
    "try { throw new Exception(\"boom\"); } catch (Exception e) { println(e.message); }";
  check_out "finally on success" "body,fin,\n"
    "try { print(\"body,\"); } finally { print(\"fin,\"); } println(\"\");";
  check_out "finally on throw" "fin,caught\n"
    "try { try { throw new Exception(\"x\"); } finally { print(\"fin,\"); } } catch (Exception e) { println(\"caught\"); }";
  check_out "rethrow" "inner,outer\n"
    "try { try { throw new Exception(\"x\"); } catch (Exception e) { print(\"inner,\"); throw e; } } catch (Exception e) { println(\"outer\"); }"

let test_runtime_exceptions () =
  check_out "div by zero" "ArithmeticException\n"
    "try { var x = 1 / 0; } catch (ArithmeticException e) { println(\"ArithmeticException\"); }";
  check_out "null field" "npe\n"
    "var n = null; try { var x = n.f; } catch (NullPointerException e) { println(\"npe\"); }";
  check_out "null call" "npe\n"
    "var n = null; try { n.m(); } catch (NullPointerException e) { println(\"npe\"); }";
  check_out "array bounds" "oob\n"
    "var a = [1, 2]; try { a[5] = 0; } catch (IndexOutOfBoundsException e) { println(\"oob\"); }";
  check_out "negative array" "neg\n"
    "try { newArray(-3); } catch (NegativeArraySizeException e) { println(\"neg\"); }"

let test_finally_overrides_return () =
  Alcotest.(check string) "finally return wins" "2\n"
    (run
       {|
function f() {
  try { return 1; } finally { return 2; }
}
function main() { println(f()); return 0; }
|})

let test_builtins () =
  check_out "len" "3 2\n" "println(len(\"abc\") + \" \" + len([1, 2]));";
  check_out "charAt/ord/chr" "b 98 c\n"
    "println(charAt(\"abc\", 1) + \" \" + ord(\"b\") + \" \" + chr(99));";
  check_out "substr" "ell\n" "println(substr(\"hello\", 1, 3));";
  check_out "parseInt" "42\n" "println(parseInt(\"42\"));";
  check_out "min max abs" "1 5 3\n" "println(min(1, 5) + \" \" + max(1, 5) + \" \" + abs(-3));";
  check_out "str" "12\n" "println(str(1) + str(2));";
  check_out "arraycopy" "0 1 2\n"
    "var src = [1, 2, 9]; var dst = [0, 0, 0]; arraycopy(src, 0, dst, 1, 2); println(dst[0] + \" \" + dst[1] + \" \" + dst[2]);";
  check_out "instanceOf/classOf" "true false NullPointerException\n"
    "var e = new NullPointerException(\"m\"); println(instanceOf(e, \"RuntimeException\") + \" \" + instanceOf(e, \"Error\") + \" \" + classOf(e));";
  check_out "graphEq deep" "true false\n"
    "var a = [[1]]; var b = deepCopy(a); var r = graphEq(a, b) + \" \"; b[0][0] = 2; println(r + graphEq(a, b));"

let expect_runtime_error body =
  match run_main body with
  | output -> Alcotest.failf "expected runtime error, got output %S" output
  | exception Compile.Runtime_error _ -> ()
  | exception Failatom_runtime.Vm.Unknown_method _ -> ()

let test_runtime_errors () =
  expect_runtime_error "var x = unknownVar;";
  expect_runtime_error "println(true + 1);";
  expect_runtime_error "var a = [1]; var i = a[\"x\"];";
  expect_runtime_error "throw 42;";
  (* Calling an unknown method is a dynamic error: receivers are not
     statically typed. *)
  expect_runtime_error "var a = new Exception(\"m\"); a.nope();"

let test_check_builtin () =
  check_out "check passes" "done\n" "check(1 < 2, \"fine\"); println(\"done\");";
  Alcotest.(check string) "check throws IllegalStateException" "caught\n"
    (run_main
       "try { check(false, \"nope\"); } catch (IllegalStateException e) { println(\"caught\"); }")

(* ---------------- inline caches ---------------- *)

(* Runs a fresh instantiation of [image]; returns the displayed result
   with the VM's inline-cache hit and miss counters. *)
let run_image image =
  let vm = Compile.instantiate image in
  let v = Compile.run_main vm in
  (Failatom_runtime.Value.to_display_string v, vm.Failatom_runtime.Vm.ic_hits,
   vm.Failatom_runtime.Vm.ic_misses)

let run_ic src = run_image (Compile.image (Minilang.parse src))

let test_ic_polymorphic_site () =
  (* one call site, receivers alternating between two classes: the
     monomorphic cache must re-resolve on every class change and still
     dispatch correctly *)
  let src =
    {|
class A { method tag() { return 1; } }
class B { method tag() { return 2; } }
function main() {
  var xs = [new A(), new B(), new A(), new B()];
  var s = 0;
  for (var i = 0; i < 20; i = i + 1) {
    s = s + xs[i % 4].tag();
  }
  return s;
}
|}
  in
  let result, _, misses = run_ic src in
  Alcotest.(check string) "sum" "30" result;
  (* the alternation defeats the cache by construction *)
  Alcotest.(check bool) "site actually misses" true (misses > 2)

let test_ic_shadowed_field_layout () =
  (* an inherited getter runs the same compiled body for receivers of
     both classes, and the subclass's extra field shifts the layout:
     every read must find the field of the receiver's own class *)
  let src =
    {|
class Base {
  field v;
  method init() { this.v = 10; return this; }
  method get() { return this.v; }
}
class Derived extends Base {
  field w;
  method init() { super.init(); this.w = 5; this.v = 20; return this; }
}
function main() {
  var b = new Base();
  var d = new Derived();
  var s = 0;
  for (var i = 0; i < 10; i = i + 1) {
    s = s + b.get() + d.get();
  }
  return s;
}
|}
  in
  let result, _, _ = run_ic src in
  Alcotest.(check string) "layout-correct reads" "300" result

let test_ic_inherited_init () =
  (* [new Sub(...)] where [init] lives on the superclass: the static
     new-site resolution must find the inherited initializer, and a
     second class at the same textual site must not reuse it *)
  let src =
    {|
class Base {
  field v;
  method init(v) { this.v = v; return this; }
}
class Sub extends Base { }
function main() {
  var a = new Sub(7);
  var b = new Base(35);
  return a.v + b.v;
}
|}
  in
  let result, _, _ = run_ic src in
  Alcotest.(check string) "inherited init ran" "42" result

let test_ic_shared_across_instantiations () =
  (* inline caches live in the image and are shared by every VM
     instantiated from it: a second run (cache already warm) must be
     correct, and its hit counter must not be worse than the first's *)
  let src =
    {|
class C { field n; method init() { this.n = 0; return this; }
          method bump() { this.n = this.n + 1; return this.n; } }
function main() {
  var c = new C();
  var s = 0;
  for (var i = 0; i < 50; i = i + 1) { s = c.bump(); }
  return s;
}
|}
  in
  let image = Compile.image (Minilang.parse src) in
  let r1, hits1, _ = run_image image in
  let r2, hits2, _ = run_image image in
  Alcotest.(check string) "first run" "50" r1;
  Alcotest.(check string) "second run (warm cache)" "50" r2;
  Alcotest.(check bool) "warm run hits at least as often" true (hits2 >= hits1)

let suite =
  [ Alcotest.test_case "arithmetic" `Quick test_arithmetic;
    Alcotest.test_case "logic" `Quick test_logic;
    Alcotest.test_case "control flow" `Quick test_control_flow;
    Alcotest.test_case "functions" `Quick test_functions_and_recursion;
    Alcotest.test_case "objects" `Quick test_objects;
    Alcotest.test_case "aliasing" `Quick test_aliasing;
    Alcotest.test_case "inheritance and super" `Quick test_inheritance_and_super;
    Alcotest.test_case "dynamic dispatch" `Quick test_dynamic_dispatch;
    Alcotest.test_case "exceptions" `Quick test_exceptions;
    Alcotest.test_case "runtime exceptions" `Quick test_runtime_exceptions;
    Alcotest.test_case "finally overrides return" `Quick test_finally_overrides_return;
    Alcotest.test_case "builtins" `Quick test_builtins;
    Alcotest.test_case "runtime errors" `Quick test_runtime_errors;
    Alcotest.test_case "check builtin" `Quick test_check_builtin ]

(* Inline-cache cases: each checks the value a site computes and the
   hit/miss counters the closure engine keeps for it. *)
let ic_suite =
  [ Alcotest.test_case "ic: polymorphic site" `Quick test_ic_polymorphic_site;
    Alcotest.test_case "ic: shadowed field layout" `Quick test_ic_shadowed_field_layout;
    Alcotest.test_case "ic: inherited init" `Quick test_ic_inherited_init;
    Alcotest.test_case "ic: shared across VMs" `Quick test_ic_shared_across_instantiations ]
