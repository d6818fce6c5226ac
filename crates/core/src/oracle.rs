//! The oracle (§3.2): "an advisory data structure" recording variables
//! that have been observed to hold non-integer number values, so future
//! recordings demote them to double immediately instead of re-recording a
//! type-unstable trace.

use std::collections::HashSet;

use tm_bytecode::FuncId;

use crate::activation::SlotKey;

/// A bytecode site (function, pc).
pub type Site = (FuncId, u32);

/// Key identifying a *variable* (not a stack temporary) across recordings.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum VarKey {
    /// A realm global slot.
    Global(u32),
    /// A local variable of a specific function.
    Local(FuncId, u16),
}

/// The integer-demotion oracle.
///
/// "When compiling loops, we consult the oracle before specializing values
/// to integers. Speculation towards integers is performed only if no
/// adverse information is known to the oracle."
#[derive(Debug, Default, Clone)]
pub struct Oracle {
    demoted: HashSet<VarKey>,
    /// Arithmetic bytecode sites whose integer speculation keeps failing
    /// (overflow guards taken repeatedly): future recordings use the
    /// double path there directly.
    demoted_sites: HashSet<Site>,
}

impl Oracle {
    /// Creates an empty oracle.
    pub fn new() -> Oracle {
        Oracle::default()
    }

    /// Records that `key` was observed holding a non-integer value.
    pub fn mark_double(&mut self, key: VarKey) {
        self.demoted.insert(key);
    }

    /// Whether `key` may be speculated as an integer.
    pub fn may_speculate_int(&self, key: VarKey) -> bool {
        !self.demoted.contains(&key)
    }

    /// Records that integer speculation at arithmetic site `site` failed
    /// at runtime (its overflow guard went hot).
    pub fn mark_site(&mut self, site: Site) {
        self.demoted_sites.insert(site);
    }

    /// Whether the arithmetic at `site` may speculate integer results.
    pub fn may_speculate_int_site(&self, site: Site) -> bool {
        !self.demoted_sites.contains(&site)
    }

    /// Snapshots the demotion state in a deterministic (sorted) order, for
    /// the persistent trace cache. Returns `(variables, sites)`.
    pub fn export(&self) -> (Vec<VarKey>, Vec<Site>) {
        fn var_rank(k: &VarKey) -> (u8, u32, u32) {
            match *k {
                VarKey::Global(g) => (0, g, 0),
                VarKey::Local(f, s) => (1, f.0, u32::from(s)),
            }
        }
        let mut vars: Vec<VarKey> = self.demoted.iter().copied().collect();
        vars.sort_by_key(var_rank);
        let mut sites: Vec<Site> = self.demoted_sites.iter().copied().collect();
        sites.sort_by_key(|&(f, pc)| (f.0, pc));
        (vars, sites)
    }

    /// Merges a previously [`Oracle::export`]ed snapshot back in.
    pub fn restore(&mut self, vars: &[VarKey], sites: &[Site]) {
        self.demoted.extend(vars.iter().copied());
        self.demoted_sites.extend(sites.iter().copied());
    }

    /// Number of demoted variables (diagnostics).
    pub fn len(&self) -> usize {
        self.demoted.len()
    }

    /// Whether nothing has been demoted.
    pub fn is_empty(&self) -> bool {
        self.demoted.is_empty()
    }
}

/// Derives the oracle key for a slot key in the context of the function
/// whose frame the slot belongs to, if the slot names a variable.
pub fn var_key(slot: SlotKey, frame_funcs: &[FuncId]) -> Option<VarKey> {
    match slot {
        SlotKey::Global(g) => Some(VarKey::Global(g)),
        SlotKey::Local { depth, slot } => {
            frame_funcs.get(depth as usize).map(|&f| VarKey::Local(f, slot))
        }
        SlotKey::Stack { .. } | SlotKey::Reimport { .. } => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn oracle_blocks_int_speculation_after_mark() {
        let mut o = Oracle::new();
        let k = VarKey::Local(FuncId(1), 2);
        assert!(o.may_speculate_int(k));
        o.mark_double(k);
        assert!(!o.may_speculate_int(k));
        assert!(o.may_speculate_int(VarKey::Local(FuncId(1), 3)));
        assert_eq!(o.len(), 1);
    }

    #[test]
    fn site_demotion_blocks_int_speculation_at_that_site_only() {
        let mut o = Oracle::new();
        let site = (FuncId(3), 17);
        assert!(o.may_speculate_int_site(site));
        o.mark_site(site);
        assert!(!o.may_speculate_int_site(site));
        // Neighbouring pcs and other functions are unaffected.
        assert!(o.may_speculate_int_site((FuncId(3), 18)));
        assert!(o.may_speculate_int_site((FuncId(4), 17)));
        // Site demotions are independent of variable demotions.
        assert!(o.is_empty());
        assert!(o.may_speculate_int(VarKey::Local(FuncId(3), 0)));
    }

    #[test]
    fn var_keys_from_slots() {
        let funcs = [FuncId(7), FuncId(9)];
        assert_eq!(var_key(SlotKey::Global(2), &funcs), Some(VarKey::Global(2)));
        assert_eq!(
            var_key(SlotKey::Local { depth: 1, slot: 3 }, &funcs),
            Some(VarKey::Local(FuncId(9), 3))
        );
        assert_eq!(var_key(SlotKey::Stack { depth: 0, idx: 0 }, &funcs), None);
        assert_eq!(var_key(SlotKey::Local { depth: 5, slot: 0 }, &funcs), None);
    }
}
