//! Per-bytecode lowering for the trace recorder (§3.1, §6.3): what each
//! bytecode means on the types the recorder observed, as LIR with the
//! guards that keep it valid.
//!
//! The recording's state (shadow frames, slot tables, exit snapshots) is
//! private to `recorder.rs`; the lowering reaches it only through the
//! primitives there (`emit`, `guard_exit`, `call`, `push`/`pop`/`peek`,
//! the variable accessors and frame entry and exit).

use tm_bytecode::{FuncId, Op};
use tm_interp::Interp;
use tm_lir::{AluOp, ChkOp, CmpOp, FOp, Lir, LirType, Tag};
use tm_runtime::trace_helpers::{FastNative, FastTy, MAX_HELPER_ARGS, NO_PROTO};
use tm_runtime::{ops as rt_ops, Callee, Helper, IcKind, NativeId, ObjectClass, ObjectId, PropIc};
use tm_runtime::{Realm, Sym, Value};

use crate::activation::{observed_type, SlotKey};
use crate::events::AbortReason;
use crate::oracle::Oracle;
use crate::recorder::{top_value, RecordAction, Recorder, Sv};

/// How [`Recorder::after_step`] types a native call's result.
#[derive(Debug, Clone, Copy)]
pub(crate) enum PendingNative {
    /// Generic boxed call: unbox the observed result.
    Generic,
    /// Typed fast call with result type; `CharCodeAt` additionally guards
    /// its NaN sentinel.
    Fast(Helper, FastTy),
}

impl Recorder {
    // ==== typed helpers ====

    /// Unboxes a boxed SSA value according to an observed concrete value,
    /// guarding the type.
    fn unbox_observed(&mut self, boxed: u32, actual: Value) -> Sv {
        let e = self.guard_exit();
        let ty = observed_type(actual);
        match Tag::of(ty) {
            // A number observed as a double may be int-tagged next time.
            Some(Tag::Double) => Sv { id: self.emit(Lir::UnboxNumD(boxed, e)), ty },
            Some(tag) => Sv { id: self.emit(Lir::Unbox(tag, boxed, e)), ty },
            None if ty == LirType::Null => {
                self.emit(Lir::GuardBoxedEq(boxed, Value::NULL.raw(), e));
                self.null_sv()
            }
            None => {
                self.emit(Lir::GuardBoxedEq(boxed, Value::UNDEFINED.raw(), e));
                self.undefined_sv()
            }
        }
    }

    fn null_sv(&mut self) -> Sv {
        let id = self.emit(Lir::ConstBoxed(Value::NULL.raw()));
        Sv { id, ty: LirType::Null }
    }

    /// Boxes a shadow value into a raw tagged word.
    fn box_sv(&mut self, sv: Sv) -> u32 {
        match Tag::of(sv.ty) {
            Some(tag) => self.emit(Lir::Box(tag, sv.id)),
            None => sv.id,
        }
    }

    /// ToNumber: `Ok((id, is_double))`.
    fn to_num(&mut self, sv: Sv) -> Result<(u32, bool), AbortReason> {
        match sv.ty {
            LirType::Int | LirType::Bool => Ok((sv.id, false)),
            LirType::Double => Ok((sv.id, true)),
            LirType::Null => Ok((self.emit(Lir::ConstI(0)), false)),
            LirType::Undefined | LirType::Object => {
                Ok((self.emit(Lir::ConstD(f64::NAN.to_bits())), true))
            }
            // String → number runs the interpreter's own `parse_number`
            // through a pure helper; the result is always a double (the
            // recorder widens int-valued numbers elsewhere too).
            LirType::String => Ok((self.call(Helper::StrToNum, &[sv.id], LirType::Double), true)),
            LirType::Boxed => Err(AbortReason::Unsupported),
        }
    }

    fn as_double(&mut self, id: u32, is_double: bool) -> u32 {
        if is_double {
            id
        } else {
            self.emit(Lir::I2D(id))
        }
    }

    /// ToInt32: `Ok((id, full_range))`; `full_range` means the i32 may
    /// exceed the boxable 31-bit range.
    fn to_i32(&mut self, sv: Sv) -> Result<(u32, bool), AbortReason> {
        match sv.ty {
            LirType::Int | LirType::Bool => Ok((sv.id, false)),
            LirType::Double => Ok((self.emit(Lir::D2I32(sv.id)), true)),
            LirType::Null | LirType::Undefined | LirType::Object => {
                Ok((self.emit(Lir::ConstI(0)), false))
            }
            LirType::String => {
                let (d, _) = self.to_num(sv)?;
                Ok((self.emit(Lir::D2I32(d)), true))
            }
            LirType::Boxed => Err(AbortReason::Unsupported),
        }
    }

    /// A Bool-typed truthiness computation for `sv`.
    fn truthy_sv(&mut self, sv: Sv) -> Sv {
        let id = match sv.ty {
            LirType::Bool => sv.id,
            LirType::Int => {
                let zero = self.emit(Lir::ConstI(0));
                let is_zero = self.emit(Lir::CmpI(CmpOp::Eq, sv.id, zero));
                self.emit(Lir::NotB(is_zero))
            }
            LirType::Double => {
                let zero = self.emit(Lir::ConstD(0.0f64.to_bits()));
                let lt = self.emit(Lir::CmpD(CmpOp::Lt, sv.id, zero));
                let gt = self.emit(Lir::CmpD(CmpOp::Gt, sv.id, zero));
                self.emit(Lir::AluI(AluOp::Or, lt, gt))
            }
            LirType::String => {
                let len = self.emit(Lir::StrLen(sv.id));
                let zero = self.emit(Lir::ConstI(0));
                self.emit(Lir::CmpI(CmpOp::Gt, len, zero))
            }
            LirType::Object => self.emit(Lir::ConstBool(true)),
            LirType::Null | LirType::Undefined => self.emit(Lir::ConstBool(false)),
            LirType::Boxed => unreachable!("boxed value on shadow stack"),
        };
        Sv { id, ty: LirType::Bool }
    }

    /// Guards that `c` is as truthy as the interpreter's `actual` is, and
    /// returns whether it is.
    fn guard_truthy(&mut self, c: Sv, actual: Value, realm: &Realm) -> bool {
        let t = self.truthy_sv(c);
        let e = self.guard_exit();
        let truthy = rt_ops::truthy(realm, actual);
        self.emit(if truthy { Lir::GuardTrue(t.id, e) } else { Lir::GuardFalse(t.id, e) });
        truthy
    }

    // ==== the per-bytecode dispatcher ====

    #[allow(clippy::too_many_lines)]
    pub(crate) fn dispatch(
        &mut self,
        op: Op,
        interp: &Interp,
        realm: &mut Realm,
        oracle: &Oracle,
    ) -> Result<RecordAction, AbortReason> {
        use RecordAction::Step;
        let step = Ok(Step { observe: false });
        match op {
            Op::Int(i) => {
                let id = self.emit(Lir::ConstI(i));
                self.push(Sv { id, ty: LirType::Int });
            }
            Op::Num(i) => {
                let v = interp.installed().literals.numbers[i as usize];
                let d = realm.heap.number_value(v).expect("number literal");
                let id = self.emit(Lir::ConstD(d.to_bits()));
                self.push(Sv { id, ty: LirType::Double });
            }
            Op::Str(i) => {
                let v = interp.installed().literals.atoms[i as usize];
                let h = v.as_string().expect("string literal").0;
                let id = self.emit(Lir::ConstStr(h));
                self.push(Sv { id, ty: LirType::String });
            }
            Op::True | Op::False => {
                let id = self.emit(Lir::ConstBool(op == Op::True));
                self.push(Sv { id, ty: LirType::Bool });
            }
            Op::Null => {
                let sv = self.null_sv();
                self.push(sv);
            }
            Op::Undefined => {
                let sv = self.undefined_sv();
                self.push(sv);
            }

            Op::GetLocal(s) => {
                let sv = self.local_sv(s, interp, oracle);
                self.push(sv);
            }
            Op::SetLocal(s) => {
                let v = self.pop();
                self.set_var(SlotKey::Local { depth: self.depth() as u8, slot: s }, v);
            }
            Op::GetGlobal(g) => {
                let sv = self.global_sv(g, realm, oracle);
                self.push(sv);
            }
            Op::SetGlobal(g) => {
                let v = self.pop();
                self.set_var(SlotKey::Global(g), v);
            }

            Op::Pop => {
                self.pop();
            }
            Op::Dup => {
                let v = self.peek(0);
                self.push(v);
            }
            Op::Swap => {
                let a = self.peek(0);
                let b = self.peek(1);
                self.set_stack_from_top(0, b);
                self.set_stack_from_top(1, a);
            }

            Op::Add => self.record_arith(FOp::Add, interp, realm)?,
            Op::Sub => self.record_arith(FOp::Sub, interp, realm)?,
            Op::Mul => self.record_arith(FOp::Mul, interp, realm)?,
            Op::Div => self.record_arith(FOp::Div, interp, realm)?,
            Op::Mod => self.record_arith(FOp::Mod, interp, realm)?,
            Op::Neg => {
                let a = self.pop();
                let actual = top_value(interp, 0);
                let (ai, ad) = self.to_num(a)?;
                let neg_is_int = !ad && {
                    let x = rt_ops::to_number(realm, actual);
                    let r = -x;
                    x != 0.0 && r == r.trunc() && Value::fits_int(r as i64)
                };
                if neg_is_int {
                    let e = self.guard_exit();
                    let id = self.emit(Lir::NegIChk(ai, e));
                    self.push(Sv { id, ty: LirType::Int });
                } else {
                    let d = self.as_double(ai, ad);
                    let id = self.emit(Lir::NegD(d));
                    self.push(Sv { id, ty: LirType::Double });
                }
            }
            Op::Pos => {
                let a = self.pop();
                match a.ty {
                    LirType::Int | LirType::Double => self.push(a),
                    _ => {
                        let (id, is_d) = self.to_num(a)?;
                        let ty = if is_d { LirType::Double } else { LirType::Int };
                        self.push(Sv { id, ty });
                    }
                }
            }

            Op::BitAnd => self.record_bitop(AluOp::And, interp, realm)?,
            Op::BitOr => self.record_bitop(AluOp::Or, interp, realm)?,
            Op::BitXor => self.record_bitop(AluOp::Xor, interp, realm)?,
            Op::Shl => self.record_bitop(AluOp::Shl, interp, realm)?,
            Op::Shr => self.record_bitop(AluOp::Shr, interp, realm)?,
            Op::UShr => self.record_bitop(AluOp::UShr, interp, realm)?,
            Op::BitNot => {
                let a = self.pop();
                let actual = top_value(interp, 0);
                let (ai, full) = self.to_i32(a)?;
                let id = self.emit(Lir::NotI(ai));
                self.push_i32_result(id, full, bitnot_value(realm, actual));
            }

            Op::Lt => self.record_rel(CmpOp::Lt)?,
            Op::Le => self.record_rel(CmpOp::Le)?,
            Op::Gt => self.record_rel(CmpOp::Gt)?,
            Op::Ge => self.record_rel(CmpOp::Ge)?,
            Op::Eq => self.record_eq(false, false)?,
            Op::Ne => self.record_eq(false, true)?,
            Op::StrictEq => self.record_eq(true, false)?,
            Op::StrictNe => self.record_eq(true, true)?,
            Op::Not => {
                let a = self.pop();
                let t = self.truthy_sv(a);
                let id = self.emit(Lir::NotB(t.id));
                self.push(Sv { id, ty: LirType::Bool });
            }
            Op::Typeof => {
                let a = self.pop();
                let s = match a.ty {
                    LirType::Int | LirType::Double => "number",
                    LirType::Bool => "boolean",
                    LirType::String => "string",
                    LirType::Null => "object",
                    LirType::Undefined => "undefined",
                    LirType::Object => {
                        let actual = top_value(interp, 0);
                        let oid = actual.as_object().expect("object-typed shadow");
                        // The class is guarded so function-vs-object stays
                        // correct on later runs.
                        let class = realm.heap.object(oid).class;
                        self.guard_class(a.id, class);
                        if class == ObjectClass::Function {
                            "function"
                        } else {
                            "object"
                        }
                    }
                    LirType::Boxed => unreachable!("boxed on shadow stack"),
                };
                let atom = realm.typeof_atom(s);
                let id = self.emit(Lir::ConstStr(atom.as_string().expect("atom").0));
                self.push(Sv { id, ty: LirType::String });
            }

            Op::NewArray(n) => {
                let n = n as usize;
                let len = self.emit(Lir::ConstI(n as i32));
                let arr = self.call(Helper::NewArray, &[len], LirType::Object);
                for (i, el) in self.pop_n(n).into_iter().enumerate() {
                    let idx = self.emit(Lir::ConstI(i as i32));
                    let boxed = self.box_sv(el);
                    self.emit(Lir::StoreElem(arr, idx, boxed));
                }
                self.push(Sv { id: arr, ty: LirType::Object });
            }
            Op::NewObject => {
                let proto = self.emit(Lir::ConstBoxed(NO_PROTO));
                let obj = self.call(Helper::NewObject, &[proto], LirType::Object);
                self.push(Sv { id: obj, ty: LirType::Object });
            }
            Op::InitProp(sym, site) => {
                let v = self.pop();
                let objsv = self.peek(0);
                let actual_obj = top_value(interp, 1);
                let ic = interp.ics.get(site as usize).copied().unwrap_or_default();
                self.record_set_prop(objsv, sym, v, actual_obj, ic, realm)?;
            }
            Op::GetProp(sym, site) => {
                let base = self.pop();
                let actual = top_value(interp, 0);
                let ic = interp.ics.get(site as usize).copied().unwrap_or_default();
                let result = self.record_get_prop(base, sym, actual, ic, realm)?;
                self.push(result);
            }
            Op::SetProp(sym, site) => {
                let v = self.pop();
                let base = self.pop();
                let actual_obj = top_value(interp, 1);
                let ic = interp.ics.get(site as usize).copied().unwrap_or_default();
                self.record_set_prop(base, sym, v, actual_obj, ic, realm)?;
                self.push(v);
            }
            Op::GetElem => {
                let idx = self.pop();
                let base = self.pop();
                let actual_idx = top_value(interp, 0);
                let actual_base = top_value(interp, 1);
                let result =
                    self.record_get_elem(base, idx, actual_base, actual_idx, realm)?;
                self.push(result);
            }
            Op::SetElem => {
                let v = self.pop();
                let idx = self.pop();
                let base = self.pop();
                let actual_idx = top_value(interp, 1);
                let actual_base = top_value(interp, 2);
                self.record_set_elem(base, idx, v, actual_base, actual_idx, realm)?;
                self.push(v);
            }

            Op::Call(argc) => return self.record_call(argc, false, interp, realm),
            Op::New(argc) => return self.record_call(argc, true, interp, realm),
            Op::Return | Op::ReturnUndef => return Ok(self.return_from_frame(op == Op::Return)),

            Op::Jump(_) => {}
            Op::JumpIfFalse(_) | Op::JumpIfTrue(_) => {
                let c = self.pop();
                self.guard_truthy(c, top_value(interp, 0), realm);
            }
            Op::AndJump(_) => {
                if self.guard_truthy(self.peek(0), top_value(interp, 0), realm) {
                    self.pop();
                }
            }
            Op::OrJump(_) => {
                if !self.guard_truthy(self.peek(0), top_value(interp, 0), realm) {
                    self.pop();
                }
            }

            Op::LoopHeader(loop_id) => return self.loop_header(interp, loop_id),
            Op::Nop => {}
        }
        step
    }

    /// The shadow value of a native call's result, `actual` as the
    /// interpreter computed it.
    pub(crate) fn native_result(
        &mut self,
        pending: PendingNative,
        call_id: u32,
        actual: Value,
        realm: &Realm,
    ) -> Sv {
        match pending {
            PendingNative::Generic => self.unbox_observed(call_id, actual),
            PendingNative::Fast(Helper::CharCodeAt, FastTy::Int) => {
                // §6.3: charCodeAt returns an integer or NaN; the helper
                // encodes NaN as -1 and we guard the observed case.
                let zero = self.emit(Lir::ConstI(0));
                let is_nan = realm.heap.number_value(actual).is_none_or(f64::is_nan);
                let e = self.guard_exit();
                if is_nan {
                    let ltz = self.emit(Lir::CmpI(CmpOp::Lt, call_id, zero));
                    self.emit(Lir::GuardTrue(ltz, e));
                    let id = self.emit(Lir::ConstD(f64::NAN.to_bits()));
                    Sv { id, ty: LirType::Double }
                } else {
                    let gez = self.emit(Lir::CmpI(CmpOp::Ge, call_id, zero));
                    self.emit(Lir::GuardTrue(gez, e));
                    Sv { id: call_id, ty: LirType::Int }
                }
            }
            PendingNative::Fast(_, ret) => Sv { id: call_id, ty: lir_type(ret) },
        }
    }

    // ==== complex op recorders ====

    /// Converts a shadow value to a string SSA id (for concatenation).
    fn stringify(&mut self, sv: Sv) -> Result<u32, AbortReason> {
        match sv.ty {
            LirType::String => Ok(sv.id),
            LirType::Int => Ok(self.call(Helper::IntToString, &[sv.id], LirType::String)),
            LirType::Double => Ok(self.call(Helper::NumberToString, &[sv.id], LirType::String)),
            _ => Err(AbortReason::Unsupported),
        }
    }

    /// `+ - * / %`: string concatenation for `+` on a string, otherwise the
    /// overflow-checked integer op while the observed exact result is a
    /// boxable integer (and the site may still speculate), else the double
    /// op.
    fn record_arith(
        &mut self,
        op: FOp,
        interp: &Interp,
        realm: &mut Realm,
    ) -> Result<(), AbortReason> {
        let b_actual = top_value(interp, 0);
        let a_actual = top_value(interp, 1);
        let b = self.pop();
        let a = self.pop();
        if op == FOp::Add && (a.ty == LirType::String || b.ty == LirType::String) {
            let a_str = self.stringify(a)?;
            let b_str = self.stringify(b)?;
            let id = self.call(Helper::ConcatStrings, &[a_str, b_str], LirType::String);
            self.push(Sv { id, ty: LirType::String });
            return Ok(());
        }
        let chk = match op {
            FOp::Add => Some(ChkOp::Add),
            FOp::Sub => Some(ChkOp::Sub),
            FOp::Mul => Some(ChkOp::Mul),
            FOp::Div | FOp::Mod => None,
        };
        let int_like = |sv: Sv| matches!(sv.ty, LirType::Int | LirType::Bool | LirType::Null);
        // Int-like operands are integers in the boxable range, so the
        // checked op's `eval` on them is the exact observed result.
        let stays_int = int_like(a)
            && int_like(b)
            && match chk {
                Some(chk) => {
                    let x = rt_ops::to_number(realm, a_actual) as i32;
                    let y = rt_ops::to_number(realm, b_actual) as i32;
                    chk.eval(x, y).is_some()
                }
                None => op == FOp::Mod && mod_stays_int(realm, a_actual, b_actual),
            }
            && self.site_may_speculate();
        let (bi, bd) = self.to_num(b)?;
        let (ai, ad) = self.to_num(a)?;
        if stays_int {
            let e = self.arith_guard_exit();
            let id = match chk {
                Some(chk) => self.emit(Lir::ChkAluI(chk, ai, bi, e)),
                None => self.emit(Lir::ModIChk(ai, bi, e)),
            };
            self.push(Sv { id, ty: LirType::Int });
        } else {
            let bd2 = self.as_double(bi, bd);
            let ad2 = self.as_double(ai, ad);
            let id = self.emit(Lir::AluD(op, ad2, bd2));
            self.push(Sv { id, ty: LirType::Double });
        }
        Ok(())
    }

    /// `& | ^ << >> >>>` on ToInt32 operands.
    fn record_bitop(
        &mut self,
        op: AluOp,
        interp: &Interp,
        realm: &mut Realm,
    ) -> Result<(), AbortReason> {
        let b_actual = top_value(interp, 0);
        let a_actual = top_value(interp, 1);
        let b = self.pop();
        let a = self.pop();
        let (bi, bfull) = self.to_i32(b)?;
        let (ai, afull) = self.to_i32(a)?;
        let ax = rt_ops::to_int32(realm, a_actual);
        let bx = rt_ops::to_int32(realm, b_actual);
        // The left and unsigned right shifts can leave the boxable range on
        // in-range operands: checked while the observed result fits, widened
        // to a double otherwise.
        let chk = match op {
            AluOp::Shl => Some(ChkOp::Shl),
            AluOp::UShr => Some(ChkOp::UShr),
            _ => None,
        };
        match chk {
            Some(chk) if chk.eval(ax, bx).is_some() && self.site_may_speculate() => {
                let e = self.arith_guard_exit();
                let id = self.emit(Lir::ChkAluI(chk, ai, bi, e));
                self.push(Sv { id, ty: LirType::Int });
            }
            Some(_) => {
                let id = self.emit(Lir::AluI(op, ai, bi));
                // A `>>>` result is a u32.
                let d = self.emit(if op == AluOp::UShr { Lir::U2D(id) } else { Lir::I2D(id) });
                self.push(Sv { id: d, ty: LirType::Double });
            }
            // &,|,^,>> are closed over the boxable range (see the LIR
            // docs); a range check is only needed when an operand came
            // from a full-range ToInt32.
            None => {
                let id = self.emit(Lir::AluI(op, ai, bi));
                self.push_i32_result(id, afull || bfull, i64::from(op.eval(ax, bx)));
            }
        }
        Ok(())
    }

    /// Pushes an i32-valued result: in-range ints stay ints (guarded when
    /// the computation could leave the range), others widen to double.
    fn push_i32_result(&mut self, id: u32, may_escape: bool, actual: i64) {
        if Value::fits_int(actual) && (!may_escape || self.site_may_speculate()) {
            if may_escape {
                let e = self.arith_guard_exit();
                let checked = self.emit(Lir::ChkRangeI(id, e));
                self.push(Sv { id: checked, ty: LirType::Int });
            } else {
                self.push(Sv { id, ty: LirType::Int });
            }
        } else {
            let d = self.emit(Lir::I2D(id));
            self.push(Sv { id: d, ty: LirType::Double });
        }
    }

    fn record_rel(&mut self, op: CmpOp) -> Result<(), AbortReason> {
        let b = self.pop();
        let a = self.pop();
        let id = if a.ty == LirType::String && b.ty == LirType::String {
            let cmp = self.call(Helper::StrCmp, &[a.id, b.id], LirType::Int);
            let zero = self.emit(Lir::ConstI(0));
            self.emit(Lir::CmpI(op, cmp, zero))
        } else if a.ty == LirType::String || b.ty == LirType::String {
            // Mixed string/number comparison: generic helper.
            let helper = match op {
                CmpOp::Eq => Helper::EqAny,
                CmpOp::Lt => Helper::LtAny,
                CmpOp::Le => Helper::LeAny,
                CmpOp::Gt => Helper::GtAny,
                CmpOp::Ge => Helper::GeAny,
            };
            self.boxed_compare(helper, a, b)
        } else {
            let (bi, bd) = self.to_num(b)?;
            let (ai, ad) = self.to_num(a)?;
            if ad || bd {
                let bd2 = self.as_double(bi, bd);
                let ad2 = self.as_double(ai, ad);
                self.emit(Lir::CmpD(op, ad2, bd2))
            } else {
                self.emit(Lir::CmpI(op, ai, bi))
            }
        };
        self.push(Sv { id, ty: LirType::Bool });
        Ok(())
    }

    /// A comparison the runtime's generic `helper` decides on the boxed
    /// operands: its Bool result, unboxed.
    fn boxed_compare(&mut self, helper: Helper, a: Sv, b: Sv) -> u32 {
        let ab = self.box_sv(a);
        let bb = self.box_sv(b);
        let r = self.call(helper, &[ab, bb], LirType::Boxed);
        let e = self.guard_exit();
        self.emit(Lir::Unbox(Tag::Bool, r, e))
    }

    fn record_eq(&mut self, strict: bool, negate: bool) -> Result<(), AbortReason> {
        use LirType::{Bool, Double, Int, Null, Object, String as Str, Undefined};
        let b = self.pop();
        let a = self.pop();
        let push_const = |rec: &mut Self, v: bool| {
            let id = rec.emit(Lir::ConstBool(v != negate));
            rec.push(Sv { id, ty: LirType::Bool });
        };
        let id = match (a.ty, b.ty) {
            (Int, Int) | (Bool, Bool) | (Object, Object) => self.emit(Lir::CmpI(CmpOp::Eq, a.id, b.id)),
            (Int | Double, Int | Double) => {
                let ad = self.as_double(a.id, a.ty == Double);
                let bd = self.as_double(b.id, b.ty == Double);
                self.emit(Lir::CmpD(CmpOp::Eq, ad, bd))
            }
            (Str, Str) => self.call(Helper::StrEq, &[a.id, b.id], LirType::Bool),
            (Null, Null) | (Undefined, Undefined) => {
                push_const(self, true);
                return Ok(());
            }
            (Null, Undefined) | (Undefined, Null) => {
                push_const(self, !strict);
                return Ok(());
            }
            (Bool, Int | Double) | (Int | Double, Bool) if !strict => {
                // ToNumber(bool) is its 0/1 word.
                let (ai, ad) = self.to_num(a)?;
                let (bi, bd) = self.to_num(b)?;
                if ad || bd {
                    let a2 = self.as_double(ai, ad);
                    let b2 = self.as_double(bi, bd);
                    self.emit(Lir::CmpD(CmpOp::Eq, a2, b2))
                } else {
                    self.emit(Lir::CmpI(CmpOp::Eq, ai, bi))
                }
            }
            (Str, Int | Double) | (Int | Double, Str) if !strict => {
                self.boxed_compare(Helper::EqAny, a, b)
            }
            // Remaining combinations are statically unequal under both
            // strict and (our simplified) loose semantics.
            _ => {
                push_const(self, false);
                return Ok(());
            }
        };
        let id = if negate { self.emit(Lir::NotB(id)) } else { id };
        self.push(Sv { id, ty: LirType::Bool });
        Ok(())
    }

    fn record_get_prop(
        &mut self,
        base: Sv,
        sym: Sym,
        actual_base: Value,
        ic: PropIc,
        realm: &mut Realm,
    ) -> Result<Sv, AbortReason> {
        match base.ty {
            LirType::Object => {
                let oid = actual_base.as_object().expect("object-typed shadow");
                if sym == realm.sym_length && realm.heap.object(oid).class == ObjectClass::Array {
                    self.guard_class(base.id, ObjectClass::Array);
                    let id = self.emit(Lir::ArrayLen(base.id));
                    return Ok(Sv { id, ty: LirType::Int });
                }
                // Walk the prototype chain, guarding every shape — the
                // paper's "two or three loads" property access (§3.1).
                let mut cur_id = oid;
                let mut cur_sv = base.id;
                loop {
                    let shape = realm.heap.object(cur_id).shape;
                    let e = self.guard_exit();
                    self.emit(Lir::GuardShape { obj: cur_sv, shape: shape.0, exit: e });
                    // Per-site IC: where the interpreter already proved
                    // this site monomorphic for the base's shape, its slot
                    // stands in for the shape-table lookup.
                    let slot = match ic.kind {
                        IcKind::GetSlot(slot)
                            if cur_id == oid && ic.matches(shape, realm.shapes.epoch()) =>
                        {
                            Some(slot)
                        }
                        _ => realm.shapes.lookup(shape, sym),
                    };
                    if let Some(slot) = slot {
                        let boxed = self.emit(Lir::LoadSlot(cur_sv, slot));
                        let value = realm.heap.object(cur_id).slots[slot as usize];
                        return Ok(self.unbox_observed(boxed, value));
                    }
                    match realm.heap.object(cur_id).proto {
                        Some(p) => {
                            cur_sv = self.emit(Lir::LoadProto(cur_sv));
                            cur_id = p;
                        }
                        None => return Ok(self.undefined_sv()),
                    }
                }
            }
            LirType::String => {
                if sym == realm.sym_length {
                    let id = self.emit(Lir::StrLen(base.id));
                    return Ok(Sv { id, ty: LirType::Int });
                }
                // String methods live on the (stable, rooted) string
                // prototype object.
                let proto = realm.string_proto.ok_or(AbortReason::Unsupported)?;
                let proto_sv = self.emit(Lir::ConstObj(proto.0));
                let proto_val = Value::new_object(proto);
                let sv = Sv { id: proto_sv, ty: LirType::Object };
                self.record_get_prop(sv, sym, proto_val, PropIc::default(), realm)
            }
            _ => Err(AbortReason::Unsupported),
        }
    }

    fn record_set_prop(
        &mut self,
        base: Sv,
        sym: Sym,
        v: Sv,
        actual_base: Value,
        ic: PropIc,
        realm: &mut Realm,
    ) -> Result<(), AbortReason> {
        if base.ty != LirType::Object {
            return Err(AbortReason::Unsupported);
        }
        let oid = actual_base.as_object().expect("object-typed shadow");
        let shape = realm.heap.object(oid).shape;
        let e = self.guard_exit();
        self.emit(Lir::GuardShape { obj: base.id, shape: shape.0, exit: e });
        let boxed = self.box_sv(v);
        // Per-site IC: skip the shape-table walk when the interpreter has
        // already resolved this site against the guarded shape.
        let slot = match ic.kind {
            IcKind::SetSlot(slot) if ic.matches(shape, realm.shapes.epoch()) => Some(slot),
            _ => realm.shapes.lookup(shape, sym),
        };
        if let Some(slot) = slot {
            self.emit(Lir::StoreSlot(base.id, slot, boxed));
        } else {
            // Shape transition: the slow path (deterministic given the
            // guarded starting shape).
            let sym_const = self.emit(Lir::ConstI(sym.0 as i32));
            self.call(Helper::SetPropSlow, &[base.id, sym_const, boxed], LirType::Int);
        }
        Ok(())
    }

    fn guard_class(&mut self, obj: u32, class: ObjectClass) {
        let e = self.guard_exit();
        self.emit(Lir::GuardClass { obj, class: class as u8, exit: e });
    }

    /// The int index of an array access, with the guard that `base` is an
    /// array.
    fn guard_array_index(&mut self, base: Sv, idx: Sv) -> Result<u32, AbortReason> {
        let idx_int = match idx.ty {
            LirType::Int => idx.id,
            LirType::Double => {
                let e = self.guard_exit();
                self.emit(Lir::D2IChk(idx.id, e))
            }
            _ => return Err(AbortReason::Unsupported),
        };
        self.guard_class(base.id, ObjectClass::Array);
        Ok(idx_int)
    }

    fn record_get_elem(
        &mut self,
        base: Sv,
        idx: Sv,
        actual_base: Value,
        actual_idx: Value,
        realm: &mut Realm,
    ) -> Result<Sv, AbortReason> {
        if let Some((oid, i, true)) = array_index(realm, base, actual_base, actual_idx) {
            let idx_int = self.guard_array_index(base, idx)?;
            let e = self.guard_exit();
            self.emit(Lir::GuardBound { arr: base.id, idx: idx_int, exit: e });
            let boxed = self.emit(Lir::LoadElem(base.id, idx_int));
            let value = realm.heap.object(oid).element(i as u32);
            return Ok(self.unbox_observed(boxed, value));
        }
        // Generic path (string indexing, out-of-bounds, property keys).
        if matches!(base.ty, LirType::Null | LirType::Undefined | LirType::Boxed) {
            return Err(AbortReason::Unsupported);
        }
        let bb = self.box_sv(base);
        let ib = self.box_sv(idx);
        let r = self.call(Helper::GetElemAny, &[bb, ib], LirType::Boxed);
        let value = realm
            .get_elem(actual_base, actual_idx)
            .map_err(|_| AbortReason::GuestError)?;
        Ok(self.unbox_observed(r, value))
    }

    fn record_set_elem(
        &mut self,
        base: Sv,
        idx: Sv,
        v: Sv,
        actual_base: Value,
        actual_idx: Value,
        realm: &mut Realm,
    ) -> Result<(), AbortReason> {
        if let Some((_, i, in_bounds)) = array_index(realm, base, actual_base, actual_idx) {
            let idx_int = self.guard_array_index(base, idx)?;
            let boxed = self.box_sv(v);
            let e = self.guard_exit();
            if in_bounds {
                self.emit(Lir::GuardBound { arr: base.id, idx: idx_int, exit: e });
                self.emit(Lir::StoreElem(base.id, idx_int, boxed));
            } else if i >= 0 {
                // The paper's Figure 3 path: call js_Array_set.
                let zero = self.emit(Lir::ConstI(0));
                let ge0 = self.emit(Lir::CmpI(CmpOp::Ge, idx_int, zero));
                self.emit(Lir::GuardTrue(ge0, e));
                self.call(Helper::ArraySetElem, &[base.id, idx_int, boxed], LirType::Int);
            } else {
                return Err(AbortReason::Unsupported);
            }
            return Ok(());
        }
        // Generic path.
        if matches!(base.ty, LirType::Null | LirType::Undefined | LirType::Boxed) {
            return Err(AbortReason::Unsupported);
        }
        let bb = self.box_sv(base);
        let ib = self.box_sv(idx);
        let vb = self.box_sv(v);
        self.call(Helper::SetElemAny, &[bb, ib, vb], LirType::Int);
        Ok(())
    }

    fn record_call(
        &mut self,
        argc: u8,
        is_construct: bool,
        interp: &Interp,
        realm: &mut Realm,
    ) -> Result<RecordAction, AbortReason> {
        let argc = argc as usize;
        // Stack (Call): [callee, this, args...]; (New): [callee, args...].
        let callee_offset = if is_construct { argc } else { argc + 1 };
        let callee_actual = top_value(interp, callee_offset);
        let callee_sv = self.peek(callee_offset);
        let Some(callee_oid) = callee_actual.as_object() else {
            // The interpreter will raise a TypeError when it re-executes
            // this call; that is a guest-visible error, but *recording*
            // stops because the callee is not callable — keep the two
            // distinct in the abort taxonomy.
            return Err(AbortReason::NotCallable);
        };
        if callee_sv.ty != LirType::Object {
            return Err(AbortReason::Unsupported);
        }
        let Some(callee_kind) = realm.heap.object(callee_oid).callee else {
            return Err(AbortReason::NotCallable);
        };
        // Function identity guard ("the recorder must also emit LIR to
        // guard that the function is the same", §3.1).
        let e = self.guard_exit();
        self.emit(Lir::GuardBoxedEq(callee_sv.id, u64::from(callee_oid.0), e));

        match callee_kind {
            Callee::Scripted(fidx) => {
                let func = FuncId(fidx);
                let f = interp.prog().function(func);
                let nparams = f.nparams as usize;
                let nlocals = f.nlocals as usize;

                self.check_inline(func)?;

                let args = self.pop_n(argc);
                let this_sv = if is_construct {
                    self.record_construct_this(callee_sv, callee_oid, realm)?
                } else {
                    self.pop()
                };
                let _callee = self.pop();

                let mut locals = Vec::with_capacity(nlocals);
                locals.push(this_sv);
                for i in 0..nparams {
                    let sv = if i < args.len() { args[i] } else { self.undefined_sv() };
                    locals.push(sv);
                }
                while locals.len() < nlocals {
                    let sv = self.undefined_sv();
                    locals.push(sv);
                }
                let callee_raw = Value::new_object(callee_oid).raw();
                self.enter_frame(func, is_construct, callee_raw, locals);
                Ok(RecordAction::Step { observe: false })
            }
            Callee::Native(nid) => {
                if is_construct {
                    return Err(AbortReason::Unsupported);
                }
                let may_reenter = realm.natives[nid as usize].effects.may_reenter;
                if may_reenter {
                    // §6.5 deep-bail paths are not traceable.
                    return Err(AbortReason::Unsupported);
                }
                let fast = realm.natives[nid as usize].fast;
                // The helper takes `this` and the args, above the callee.
                let popped = self.pop_n(argc + 2);
                let shadow_args = &popped[1..];
                let fast_call = fast.and_then(|f| {
                    Some((f, self.try_fast_native(f, shadow_args, argc, interp)?))
                });
                let (pending, call_id) = match fast_call {
                    Some((f, id)) => (PendingNative::Fast(f.helper, f.ret), id),
                    None => (PendingNative::Generic, self.generic_native_call(nid, shadow_args)?),
                };
                Ok(self.await_native(pending, call_id))
            }
        }
    }

    /// Emits the `new.target`-side of a construct: reads the callee's
    /// `prototype` (shape-guarded) and allocates the new object.
    fn record_construct_this(
        &mut self,
        callee_sv: Sv,
        callee_oid: ObjectId,
        realm: &mut Realm,
    ) -> Result<Sv, AbortReason> {
        let shape = realm.heap.object(callee_oid).shape;
        let slot = realm
            .shapes
            .lookup(shape, realm.sym_prototype)
            .ok_or(AbortReason::Unsupported)?;
        let proto_val = realm.heap.object(callee_oid).slots[slot as usize];
        if !proto_val.is_object() {
            return Err(AbortReason::Unsupported);
        }
        let e = self.guard_exit();
        self.emit(Lir::GuardShape { obj: callee_sv.id, shape: shape.0, exit: e });
        let boxed_proto = self.emit(Lir::LoadSlot(callee_sv.id, slot));
        let e2 = self.guard_exit();
        let proto = self.emit(Lir::Unbox(Tag::Object, boxed_proto, e2));
        let obj = self.call(Helper::NewObject, &[proto], LirType::Object);
        Ok(Sv { id: obj, ty: LirType::Object })
    }

    /// Attempts a typed fast call (§6.5). Returns the call SSA id on
    /// success. Every argument is checked before anything is emitted, so
    /// a call that goes the generic way leaves no conversion guard behind.
    /// A double passed for an int parameter is converted under a guard
    /// only when the value the interpreter holds is an int (it holds every
    /// integral double in the int range as one): any other value would
    /// fail the guard on every run.
    fn try_fast_native(
        &mut self,
        fast: FastNative,
        shadow_args: &[Sv],
        argc: usize,
        interp: &Interp,
    ) -> Option<u32> {
        // Figure out which values feed the helper: string methods take the
        // receiver, Math-style functions skip it.
        let takes_receiver = matches!(fast.args.first(), Some(FastTy::Str | FastTy::Obj));
        let skip = usize::from(!takes_receiver);
        let vals = &shadow_args[skip..];
        if vals.len() < fast.args.len() || argc > fast.args.len() {
            return None;
        }
        let params = || vals.iter().zip(fast.args.iter());
        // `vals[j]` is `argc - skip - j` below the top of the operand stack.
        let fits = params().enumerate().all(|(j, (sv, &want))| match (want, sv.ty) {
            (FastTy::Double, LirType::Double | LirType::Int | LirType::Bool)
            | (FastTy::Int, LirType::Int)
            | (FastTy::Str, LirType::String)
            | (FastTy::Obj, LirType::Object) => true,
            (FastTy::Int, LirType::Double) => {
                top_value(interp, argc - skip - j).as_int().is_some()
            }
            _ => false,
        });
        if !fits {
            return None;
        }
        let mut lir_args = Vec::with_capacity(fast.args.len());
        for (sv, &want) in params() {
            lir_args.push(match (want, sv.ty) {
                (FastTy::Double, LirType::Int | LirType::Bool) => self.emit(Lir::I2D(sv.id)),
                (FastTy::Int, LirType::Double) => {
                    let e = self.guard_exit();
                    self.emit(Lir::D2IChk(sv.id, e))
                }
                _ => sv.id,
            });
        }
        Some(self.call(fast.helper, &lir_args, lir_type(fast.ret)))
    }

    /// A boxed call of native `nid` on `this` and the arguments.
    fn generic_native_call(&mut self, nid: u32, shadow_args: &[Sv]) -> Result<u32, AbortReason> {
        if shadow_args.len() > MAX_HELPER_ARGS {
            return Err(AbortReason::Unsupported);
        }
        let boxed: Vec<u32> = shadow_args.iter().map(|&sv| self.box_sv(sv)).collect();
        Ok(self.call(Helper::CallNative(NativeId(nid)), &boxed, LirType::Boxed))
    }
}

/// The shadow type of a fast native's result.
fn lir_type(ty: FastTy) -> LirType {
    match ty {
        FastTy::Double => LirType::Double,
        FastTy::Int => LirType::Int,
        FastTy::Str => LirType::String,
        FastTy::Obj => LirType::Object,
    }
}

/// The array and int index an element access observed, and whether the
/// index was in bounds; `None` unless `base` is an array and the index an
/// int.
fn array_index(
    realm: &Realm,
    base: Sv,
    actual_base: Value,
    actual_idx: Value,
) -> Option<(ObjectId, i32, bool)> {
    let array = actual_base.as_object().filter(|&o| {
        base.ty == LirType::Object && realm.heap.object(o).class == ObjectClass::Array
    })?;
    let i = actual_idx.as_int()?;
    Some((array, i, i >= 0 && (i as usize) < realm.heap.object(array).elements.len()))
}

fn mod_stays_int(realm: &Realm, a: Value, b: Value) -> bool {
    let x = rt_ops::to_number(realm, a);
    let y = rt_ops::to_number(realm, b);
    if y == 0.0 {
        return false;
    }
    let r = x % y;
    r == r.trunc() && Value::fits_int(r as i64) && !(r == 0.0 && x < 0.0)
}

fn bitnot_value(realm: &Realm, a: Value) -> i64 {
    i64::from(!rt_ops::to_int32(realm, a))
}
