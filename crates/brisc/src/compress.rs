//! The BRISC compression algorithm (paper §4).
//!
//! Greedy dictionary construction: each pass scans the current program,
//! generating candidate instruction patterns by one-field operand
//! specialization, `-x4` immediate narrowing, and opcode combination
//! over the augmented operand-specialized sets of adjacent pairs; each
//! candidate is scored `B = P − W`; the top `K` are adopted; the
//! program is rewritten (combinations first, one new pattern per pair,
//! then compacting specializations); the hunt stops when a pass yields
//! fewer than `K` positive candidates.

use crate::entry::{DictEntry, FieldKind, ImmEnc, InstPattern, PatternField, MAX_ENTRY_PATTERNS};
use crate::image::{assemble_with, BriscImage, FuncItems, Item};
use crate::BriscError;
use codecomp_core::dict::{select_top_k, Benefit, MemoryRegime, PassPolicy};
use codecomp_vm::encode::{base_op, fields, BaseOp, Field};
use codecomp_vm::isa::Inst;
use codecomp_vm::program::{VmFunction, VmProgram};
use codecomp_vm::reg::Reg;
use std::collections::hash_map::Entry;
use std::collections::{HashMap, HashSet};

/// Compressor knobs; the default matches the paper (`K = 20`, order-1
/// Markov, all candidate generators on).
#[derive(Debug, Clone, Copy)]
pub struct BriscOptions {
    /// Candidates adopted per pass.
    pub k: usize,
    /// Safety cap on passes.
    pub max_passes: usize,
    /// `B = P − W` or abundant-memory `B = P`.
    pub regime: MemoryRegime,
    /// Generate one-field operand specializations.
    pub specialization: bool,
    /// Generate opcode combinations of adjacent pairs.
    pub combination: bool,
    /// Generate `-x4` scaled-immediate narrowings.
    pub x4: bool,
    /// Replace conventional epilogues with the `epi` macro-instruction.
    pub epi: bool,
    /// Use a single context instead of the order-1 Markov model.
    pub order0: bool,
    /// Extra bytes charged against `P` per adopted entry, modeling the
    /// growth of the transmitted Markov tables (the paper charges only
    /// the dictionary entry itself; this knob exists for the ablation).
    pub table_charge: u32,
}

impl Default for BriscOptions {
    fn default() -> Self {
        Self {
            k: 20,
            max_passes: 64,
            regime: MemoryRegime::Constrained,
            specialization: true,
            combination: true,
            x4: true,
            epi: true,
            order0: false,
            table_charge: 0,
        }
    }
}

/// Compression outcome: the image plus statistics.
#[derive(Debug, Clone)]
pub struct BriscReport {
    /// The compressed program.
    pub image: BriscImage,
    /// Passes executed.
    pub passes: usize,
    /// Total candidates tested (the paper reports 93,211 for gcc-2.6.3).
    pub candidates_tested: usize,
    /// Final dictionary size including base entries (gcc: 1232).
    pub dictionary_entries: usize,
    /// Base entries among them.
    pub base_entries: usize,
    /// Input size: the quantized base VM encoding of the program.
    pub input_bytes: usize,
}

/// One element of the working program: a dictionary entry applied to a
/// run of original instructions.
#[derive(Debug, Clone)]
struct CItem {
    entry: u32,
    insts: Vec<Inst>,
    /// Original index of the first instruction (for target remapping).
    first_inst: usize,
}

#[derive(Debug)]
struct CFunc {
    name: String,
    param_count: usize,
    frame_size: u32,
    saved_regs: Vec<Reg>,
    items: Vec<CItem>,
    /// Leader flags parallel to `items`.
    leaders: Vec<bool>,
}

/// Compresses a VM program into a BRISC image.
///
/// # Errors
///
/// [`BriscError`] on programs outside the representable envelope
/// (functions over 64 KiB of compressed code, > 65280 functions, …).
pub fn compress(program: &VmProgram, options: BriscOptions) -> Result<BriscReport, BriscError> {
    let _stage = codecomp_core::telemetry::stage("brisc.compress");
    let input_bytes = codecomp_vm::encode::code_segment_size(program);
    let mut dictionary: Vec<DictEntry> = Vec::new();
    let mut dict_index: HashMap<DictEntry, u32> = HashMap::new();

    // ---- build the initial item sequence (base entries only) ----
    let mut funcs = Vec::with_capacity(program.functions.len());
    for f in &program.functions {
        funcs.push(build_cfunc(f, options, &mut dictionary, &mut dict_index)?);
    }
    let base_entries = dictionary.len();

    // ---- greedy passes ----
    let policy = PassPolicy {
        k: options.k,
        max_passes: options.max_passes,
        regime: options.regime,
    };
    let mut passes = 0usize;
    let mut candidates_tested = 0usize;
    let mut keys = KeyTable::default();
    // Items whose entry id is at least this were rewritten by the last
    // pass; only their sites can yield keys not yet in `keys`.
    let mut dirty_from = 0u32;
    loop {
        passes += 1;
        let entry_bits: Vec<u32> = dictionary.iter().map(DictEntry::wildcard_bits).collect();
        for f in &funcs {
            generate_candidates(f, dirty_from, &dictionary, &entry_bits, options, &mut keys);
        }
        let fresh = keys.finish_pass();
        candidates_tested += fresh.len();
        // Materialize once per unique key; merge keys that denote the
        // same resulting pattern; drop entries already in the dictionary.
        let mut merged: HashMap<DictEntry, i64> = HashMap::with_capacity(fresh.len());
        for (key, saved) in fresh {
            let entry = materialize(key, &dictionary);
            if !dict_index.contains_key(&entry) {
                *merged.entry(entry).or_insert(0) += saved;
            }
        }
        // Only positive candidates can be adopted, so the rest are
        // dropped before the sort; the order among those kept, and so
        // `select_top_k`'s tie-breaking, is unchanged. `W >= 0`, so
        // `P <= 0` rules a candidate out before `W` is computed.
        let mut scored: Vec<(DictEntry, Benefit)> = merged
            .into_iter()
            .filter_map(|(entry, total_saved)| {
                let p = total_saved - entry.dict_bytes() as i64 - i64::from(options.table_charge);
                if p <= 0 {
                    return None;
                }
                let benefit = Benefit {
                    size_reduction: p,
                    table_cost: entry.native_table_cost() as i64,
                };
                (options.regime.score(benefit) > 0).then_some((entry, benefit))
            })
            .collect();
        // Deterministic order for tie-breaking inside select_top_k.
        scored.sort_unstable_by(|a, b| a.0.cmp(&b.0));
        let adopted = select_top_k(scored, options.k, options.regime);
        let adopted_count = adopted.len();
        dirty_from = dictionary.len() as u32;
        let mut new_ids = Vec::with_capacity(adopted_count);
        for (entry, _) in adopted {
            let id = dictionary.len() as u32;
            dict_index.insert(entry.clone(), id);
            dictionary.push(entry);
            new_ids.push(id);
        }
        if adopted_count > 0 {
            for f in &mut funcs {
                rewrite(f, &dictionary, &new_ids);
            }
        }
        if !policy.continue_after(adopted_count, passes) {
            break;
        }
    }

    // ---- convert to image items ----
    let mut out_funcs = Vec::with_capacity(funcs.len());
    for f in &funcs {
        // Map original instruction index -> item index.
        let mut inst_to_item = HashMap::new();
        for (idx, item) in f.items.iter().enumerate() {
            inst_to_item.insert(item.first_inst, idx as u32);
        }
        let mut items = Vec::with_capacity(f.items.len());
        for item in &f.items {
            let entry = &dictionary[item.entry as usize];
            let mut values = Vec::new();
            for (p, inst) in entry.patterns.iter().zip(&item.insts) {
                for v in p.extract(inst) {
                    values.push(match v {
                        Field::Target(inst_idx) => Field::Target(
                            *inst_to_item.get(&(inst_idx as usize)).ok_or_else(|| {
                                BriscError::Compress(format!(
                                    "branch target {inst_idx} is not an item start in {}",
                                    f.name
                                ))
                            })?,
                        ),
                        other => other,
                    });
                }
            }
            items.push(Item {
                entry: item.entry,
                values,
            });
        }
        out_funcs.push(FuncItems {
            name: f.name.clone(),
            param_count: f.param_count,
            frame_size: f.frame_size,
            saved_regs: f.saved_regs.clone(),
            items,
            leaders: f.leaders.clone(),
        });
    }
    let globals = program.globals.clone();
    let image = assemble_with(dictionary, out_funcs, globals, options.order0)?;
    {
        use codecomp_core::telemetry as t;
        t::gauge_set("brisc.dictionary_entries", image.dictionary.len() as u64);
        t::gauge_set("brisc.base_entries", base_entries as u64);
        t::counter_add("brisc.compress.programs", 1);
        t::counter_add("brisc.compress.input_bytes", input_bytes as u64);
        t::counter_add("brisc.compress.candidates_tested", candidates_tested as u64);
    }
    Ok(BriscReport {
        dictionary_entries: image.dictionary.len(),
        base_entries,
        image,
        passes,
        candidates_tested,
        input_bytes,
    })
}

// ---- initial program construction ---------------------------------------------

fn build_cfunc(
    f: &VmFunction,
    options: BriscOptions,
    dictionary: &mut Vec<DictEntry>,
    dict_index: &mut HashMap<DictEntry, u32>,
) -> Result<CFunc, BriscError> {
    // Epilogue peephole (on the labeled form, so labels stay aligned).
    let code = if options.epi {
        replace_epilogues(f)
    } else {
        f.code.clone()
    };

    // Strip labels, mapping label -> instruction index.
    let mut insts: Vec<Inst> = Vec::with_capacity(code.len());
    let mut label_at: HashMap<u32, usize> = HashMap::new();
    for inst in &code {
        match inst {
            Inst::Label(l) => {
                label_at.insert(*l, insts.len());
            }
            other => insts.push(other.clone()),
        }
    }
    // Rewrite branch targets to instruction indices.
    let resolve = |l: u32| -> Result<u32, BriscError> {
        label_at
            .get(&l)
            .map(|&i| i as u32)
            .ok_or_else(|| BriscError::Compress(format!("unresolved label {l} in {}", f.name)))
    };
    let mut targets: HashSet<usize> = HashSet::new();
    for inst in &mut insts {
        match inst {
            Inst::Branch { target, .. }
            | Inst::BranchImm { target, .. }
            | Inst::Jump { target } => {
                *target = resolve(*target)?;
                targets.insert(*target as usize);
            }
            _ => {}
        }
    }

    // Instruction-level leaders.
    let mut leaders = vec![false; insts.len()];
    for (i, leader) in leaders.iter_mut().enumerate() {
        *leader = i == 0 || targets.contains(&i) || (i > 0 && insts[i - 1].ends_block());
    }

    // Items: one per instruction, on its base entry.
    let mut items = Vec::with_capacity(insts.len());
    for (i, inst) in insts.iter().enumerate() {
        let base = DictEntry::single(InstPattern::base_of(inst));
        let id = *dict_index.entry(base.clone()).or_insert_with(|| {
            dictionary.push(base);
            dictionary.len() as u32 - 1
        });
        items.push(CItem {
            entry: id,
            insts: vec![inst.clone()],
            first_inst: i,
        });
    }
    Ok(CFunc {
        name: f.name.clone(),
        param_count: f.param_count,
        frame_size: f.frame_size,
        saved_regs: f.saved_regs.clone(),
        items,
        leaders,
    })
}

/// Replaces the conventional epilogue (`reload`*, `reload ra`, `exit`,
/// `rjr ra`) with the `epi` macro-instruction when it matches the
/// function's frame layout exactly.
fn replace_epilogues(f: &VmFunction) -> Vec<Inst> {
    if f.frame_size == 0 {
        return f.code.clone();
    }
    let mut expect: Vec<Inst> = Vec::new();
    for (i, &r) in f.saved_regs.iter().enumerate() {
        expect.push(Inst::Reload {
            rd: r,
            off: f.saved_slot(i),
        });
    }
    expect.push(Inst::Reload {
        rd: Reg::RA,
        off: f.ra_slot(),
    });
    expect.push(Inst::Exit {
        amount: f.frame_size as i32,
    });
    expect.push(Inst::Rjr { rs: Reg::RA });

    let mut out = Vec::with_capacity(f.code.len());
    let mut i = 0usize;
    while i < f.code.len() {
        if f.code[i..].starts_with(&expect) {
            out.push(Inst::Epi);
            i += expect.len();
        } else {
            out.push(f.code[i].clone());
            i += 1;
        }
    }
    out
}

// ---- candidate generation -----------------------------------------------------

/// A specializable field value (targets and function refs never burn).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum FieldVal {
    Reg(u8),
    Imm(i32),
}

/// A zero-or-one-field modification of a dictionary entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum SpecDesc {
    /// The entry unchanged.
    Identity,
    /// One wildcard field burned to a value.
    Burn { pi: u8, fi: u8, v: FieldVal },
    /// One plain immediate wildcard narrowed to the 4-bit `-x4` form.
    X4 { pi: u8, fi: u8 },
}

/// A candidate, identified without materializing the entry — candidate
/// generation runs millions of times per pass, so keys stay `Copy` and
/// allocation-free; the `DictEntry` is built once per unique candidate
/// at scoring time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum CandKey {
    Single {
        entry: u32,
        spec: SpecDesc,
    },
    Pair {
        a: u32,
        sa: SpecDesc,
        b: u32,
        sb: SpecDesc,
    },
}

/// Every candidate key generated so far. A key is tested in the pass
/// that first generates it and never again ("a hash table of previously
/// generated candidates").
#[derive(Default)]
struct KeyTable {
    /// The bytes each key's sites saved in the current pass, or
    /// [`KeyTable::RETIRED`] for keys an earlier pass generated.
    tallies: HashMap<CandKey, i64>,
    /// The keys the current pass generated.
    fresh: Vec<CandKey>,
}

impl KeyTable {
    /// The tally of a key from an earlier pass; a counted site saves at
    /// least one byte, so no current tally is zero.
    const RETIRED: i64 = 0;

    /// Counts one site of `key` saving `saved > 0` bytes, unless an
    /// earlier pass generated the key.
    fn count(&mut self, key: CandKey, saved: i64) {
        match self.tallies.entry(key) {
            Entry::Vacant(v) => {
                v.insert(saved);
                self.fresh.push(key);
            }
            Entry::Occupied(mut o) if *o.get() != Self::RETIRED => *o.get_mut() += saved,
            Entry::Occupied(_) => {}
        }
    }

    /// Ends a pass: the keys it generated with the bytes their sites
    /// saved. The keys stay in the table, retired.
    fn finish_pass(&mut self) -> impl ExactSizeIterator<Item = (CandKey, i64)> + '_ {
        self.fresh.drain(..).map(|key| {
            let saved = self.tallies.get_mut(&key).expect("fresh keys are tallied");
            (key, std::mem::replace(saved, Self::RETIRED))
        })
    }
}

/// Applies a spec to the component patterns of `entry` from `first` on.
fn apply_spec(entry: &mut DictEntry, first: usize, spec: SpecDesc) {
    match spec {
        SpecDesc::Identity => {}
        SpecDesc::Burn { pi, fi, v } => {
            entry.patterns[first + usize::from(pi)].fields[usize::from(fi)] =
                PatternField::Burned(match v {
                    FieldVal::Reg(n) => Field::Reg(Reg::new(n)),
                    FieldVal::Imm(i) => Field::Imm(i),
                });
        }
        SpecDesc::X4 { pi, fi } => {
            entry.patterns[first + usize::from(pi)].fields[usize::from(fi)] =
                PatternField::Wildcard(FieldKind::Imm(ImmEnc::X4));
        }
    }
}

/// Materializes a candidate key into a dictionary entry.
fn materialize(key: CandKey, dictionary: &[DictEntry]) -> DictEntry {
    match key {
        CandKey::Single { entry, spec } => {
            let mut e = dictionary[entry as usize].clone();
            apply_spec(&mut e, 0, spec);
            e
        }
        CandKey::Pair { a, sa, b, sb } => {
            let a = &dictionary[a as usize];
            let mut e = DictEntry::combined(a, &dictionary[b as usize]);
            apply_spec(&mut e, 0, sa);
            apply_spec(&mut e, a.len(), sb);
            e
        }
    }
}

/// Wildcard bits of an entry after applying a spec, from cached base bits.
fn bits_after(entry: &DictEntry, base_bits: u32, spec: SpecDesc) -> u32 {
    match spec {
        SpecDesc::Identity => base_bits,
        SpecDesc::Burn { pi, fi, .. } => {
            let PatternField::Wildcard(kind) =
                &entry.patterns[usize::from(pi)].fields[usize::from(fi)]
            else {
                unreachable!("specs only name wildcard fields");
            };
            base_bits - kind.bits()
        }
        SpecDesc::X4 { pi, fi } => {
            let PatternField::Wildcard(FieldKind::Imm(enc)) =
                &entry.patterns[usize::from(pi)].fields[usize::from(fi)]
            else {
                unreachable!("x4 specs only name immediate wildcards");
            };
            base_bits - (enc.bits() - 4)
        }
    }
}

/// Enumerates the non-identity specs an item instance admits.
fn specs_of(entry: &DictEntry, insts: &[Inst], options: BriscOptions, out: &mut Vec<SpecDesc>) {
    out.clear();
    for (pi, pattern) in entry.patterns.iter().enumerate() {
        let inst_fields = fields(&insts[pi]);
        for (fi, pf) in pattern.fields.iter().enumerate() {
            let PatternField::Wildcard(kind) = pf else {
                continue;
            };
            match kind {
                FieldKind::Reg => {
                    if options.specialization {
                        let Field::Reg(r) = inst_fields[fi] else {
                            unreachable!()
                        };
                        out.push(SpecDesc::Burn {
                            pi: pi as u8,
                            fi: fi as u8,
                            v: FieldVal::Reg(r.number()),
                        });
                    }
                }
                FieldKind::Imm(enc) => {
                    let Field::Imm(v) = inst_fields[fi] else {
                        unreachable!()
                    };
                    if options.specialization {
                        out.push(SpecDesc::Burn {
                            pi: pi as u8,
                            fi: fi as u8,
                            v: FieldVal::Imm(v),
                        });
                    }
                    if options.x4 && *enc != ImmEnc::X4 && ImmEnc::X4.fits(v) {
                        out.push(SpecDesc::X4 {
                            pi: pi as u8,
                            fi: fi as u8,
                        });
                    }
                }
                FieldKind::Target | FieldKind::Func => {}
            }
        }
    }
}

/// Whether an item may be the non-final component of a combination: it
/// must fall through and must not be a call (the return address would
/// land mid-item) or a branch (whose successor is a block leader anyway).
fn can_lead_combination(item: &CItem) -> bool {
    let last = item.insts.last().expect("items are nonempty");
    last.falls_through()
        && !matches!(
            last,
            Inst::Call { .. } | Inst::CallR { .. } | Inst::Branch { .. } | Inst::BranchImm { .. }
        )
}

/// Counts the candidate keys at one function's dirty sites: the items
/// with `entry >= dirty_from` and the adjacent pairs with a dirty member.
///
/// A site's keys depend only on its item, its successor and the
/// successor's leader flag, and every key a pass counts stays in `keys`.
/// A site the last rewrite left alone therefore yields only keys that
/// earlier passes generated or that fail the size test again, so
/// skipping it leaves the pass's candidate table unchanged.
fn generate_candidates(
    f: &CFunc,
    dirty_from: u32,
    dictionary: &[DictEntry],
    entry_bits: &[u32],
    options: BriscOptions,
    keys: &mut KeyTable,
) {
    let inst_bytes = |bits: u32| 1 + (bits as usize).div_ceil(8);
    let mut consider = |key: CandKey, old_bytes: usize, new_bytes: usize| {
        if new_bytes < old_bytes {
            keys.count(key, (old_bytes - new_bytes) as i64);
        }
    };

    let mut specs_a: Vec<SpecDesc> = Vec::new();
    let mut specs_b: Vec<SpecDesc> = Vec::new();
    for (i, item) in f.items.iter().enumerate() {
        let next = f.items.get(i + 1);
        let dirty = item.entry >= dirty_from;
        if !dirty && next.is_none_or(|n| n.entry < dirty_from) {
            continue;
        }
        let entry = &dictionary[item.entry as usize];
        let bits = entry_bits[item.entry as usize];
        let old = inst_bytes(bits);
        specs_of(entry, &item.insts, options, &mut specs_a);
        if dirty {
            for &spec in &specs_a {
                consider(
                    CandKey::Single {
                        entry: item.entry,
                        spec,
                    },
                    old,
                    inst_bytes(bits_after(entry, bits, spec)),
                );
            }
        }
        let Some(next) = next else {
            continue;
        };
        if !options.combination
            || f.leaders[i + 1]
            || !can_lead_combination(item)
            || item.insts.len() + next.insts.len() > MAX_ENTRY_PATTERNS
        {
            continue;
        }
        let next_entry = &dictionary[next.entry as usize];
        let next_bits = entry_bits[next.entry as usize];
        let pair_old = old + inst_bytes(next_bits);
        specs_of(next_entry, &next.insts, options, &mut specs_b);
        for sa in std::iter::once(SpecDesc::Identity).chain(specs_a.iter().copied()) {
            let a_bits = bits_after(entry, bits, sa);
            for sb in std::iter::once(SpecDesc::Identity).chain(specs_b.iter().copied()) {
                let b_bits = bits_after(next_entry, next_bits, sb);
                consider(
                    CandKey::Pair {
                        a: item.entry,
                        sa,
                        b: next.entry,
                        sb,
                    },
                    pair_old,
                    inst_bytes(a_bits + b_bits),
                );
            }
        }
    }
}

// ---- program rewriting ----------------------------------------------------------

/// An entry adopted this pass, with what rewriting tests first.
struct NewEntry<'d> {
    id: u32,
    entry: &'d DictEntry,
    first_base: BaseOp,
    bytes: usize,
}

/// The first (in adoption order) of the smallest new entries that match
/// `insts` and beat the item's current size. A sequence only matches
/// entries whose first pattern has its first instruction's base op, which
/// rules most items out before any size is computed.
fn best_match<'a>(
    new: &[NewEntry<'_>],
    insts: impl Iterator<Item = &'a Inst> + Clone,
    len: usize,
    current_bytes: impl FnOnce() -> usize,
) -> Option<u32> {
    let first_base = base_op(insts.clone().next()?);
    let mut fits = new
        .iter()
        .filter(|n| n.first_base == first_base && n.entry.len() == len)
        .peekable();
    fits.peek()?;
    let current_bytes = current_bytes();
    fits.filter(|n| n.bytes < current_bytes && n.entry.matches_seq(insts.clone()))
        .min_by_key(|n| n.bytes)
        .map(|n| n.id)
}

fn rewrite(f: &mut CFunc, dictionary: &[DictEntry], new_ids: &[u32]) {
    let new: Vec<NewEntry<'_>> = new_ids
        .iter()
        .map(|&id| {
            let entry = &dictionary[id as usize];
            NewEntry {
                id,
                entry,
                first_base: entry.patterns[0].base,
                bytes: entry.instance_bytes(),
            }
        })
        .collect();
    let bytes_of = |id: u32| dictionary[id as usize].instance_bytes();

    // Phase 1: combinations, greedy left-to-right, best (smallest) match
    // per pair ("on each pass, there can only be one new instruction
    // pattern that applies to a particular pair").
    if new.iter().any(|n| n.entry.len() > 1) {
        let n = f.items.len();
        let items = std::mem::replace(&mut f.items, Vec::with_capacity(n));
        let leaders = std::mem::replace(&mut f.leaders, Vec::with_capacity(n));
        let mut rest = items.into_iter().zip(leaders).peekable();
        while let Some((mut a, leader)) = rest.next() {
            if let Some((b, false)) = rest.peek() {
                if can_lead_combination(&a) {
                    let best = best_match(
                        &new,
                        a.insts.iter().chain(&b.insts),
                        a.insts.len() + b.insts.len(),
                        || bytes_of(a.entry) + bytes_of(b.entry),
                    );
                    if let Some(id) = best {
                        let (b, _) = rest.next().expect("peeked");
                        a.entry = id;
                        a.insts.reserve_exact(b.insts.len());
                        a.insts.extend(b.insts);
                    }
                }
            }
            f.items.push(a);
            f.leaders.push(leader);
        }
    }

    // Phase 2: compacting specializations over all new entries.
    for item in &mut f.items {
        if let Some(id) = best_match(&new, item.insts.iter(), item.insts.len(), || {
            bytes_of(item.entry)
        }) {
            item.entry = id;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use codecomp_front::compile;
    use codecomp_vm::codegen::compile_module;
    use codecomp_vm::isa::IsaConfig;

    fn vm_program(src: &str) -> VmProgram {
        compile_module(&compile(src).unwrap(), IsaConfig::full()).unwrap()
    }

    fn salty_program() -> VmProgram {
        vm_program(
            "int pepper(int a, int b) { return a + b; }
             int salt(int j, int i) { if (j > 0) { pepper(i, j); j--; } return j; }
             int main() { return salt(3, 9); }",
        )
    }

    #[test]
    fn compresses_and_produces_an_image() {
        let report = compress(&salty_program(), BriscOptions::default()).unwrap();
        assert!(report.dictionary_entries >= report.base_entries);
        assert!(report.passes >= 1);
        assert!(report.image.code_size() > 0);
        assert!(report.input_bytes > 0);
    }

    #[test]
    fn epi_replaces_conventional_epilogues() {
        let p = salty_program();
        let salt = p.function("salt").unwrap();
        let rewritten = replace_epilogues(salt);
        assert!(rewritten.contains(&Inst::Epi), "epilogue should become epi");
        assert!(
            !rewritten.iter().any(|i| matches!(i, Inst::Exit { .. })),
            "exit should be folded into epi"
        );
        // Original count shrinks by (saved reloads + ra reload + exit + rjr - 1).
        let delta = salt.saved_regs.len() + 3 - 1;
        assert_eq!(
            rewritten.iter().filter(|i| !i.is_label()).count(),
            salt.inst_count() - delta
        );
    }

    #[test]
    fn compressed_code_is_smaller_on_redundant_programs() {
        // Many similar functions: heavy prologue/epilogue idioms.
        let mut src = String::from("int id(int a, int b) { return a; }\n");
        for i in 0..24 {
            src.push_str(&format!(
                "int f{i}(int a, int b) {{
                     int s = a;
                     int j;
                     for (j = 0; j < b; j++) s += {prev}(s, j);
                     return s;
                 }}\n",
                prev = if i == 0 {
                    "id".to_string()
                } else {
                    format!("f{}", i - 1)
                },
            ));
        }
        src.push_str("int main() { return f3(1, 2); }");
        let p = vm_program(&src);
        let report = compress(&p, BriscOptions::default()).unwrap();
        assert!(
            report.image.code_size() < report.input_bytes,
            "compressed code {} should beat base encoding {}",
            report.image.code_size(),
            report.input_bytes,
        );
        assert!(
            report.dictionary_entries > report.base_entries,
            "patterns should be adopted"
        );
    }

    #[test]
    fn disabled_generators_produce_no_adoptions_of_their_kind() {
        let p = salty_program();
        let no_comb = BriscOptions {
            combination: false,
            ..BriscOptions::default()
        };
        let report = compress(&p, no_comb).unwrap();
        assert!(
            report.image.dictionary.iter().all(|e| e.len() == 1),
            "no combined entries when combination is off"
        );
        let no_spec = BriscOptions {
            specialization: false,
            x4: false,
            ..BriscOptions::default()
        };
        let report = compress(&p, no_spec).unwrap();
        for e in &report.image.dictionary {
            for pat in &e.patterns {
                assert!(
                    pat.fields
                        .iter()
                        .all(|f| matches!(f, PatternField::Wildcard(_))),
                    "no burned fields when specialization is off"
                );
            }
        }
    }

    #[test]
    fn candidate_counts_are_reported() {
        let report = compress(&salty_program(), BriscOptions::default()).unwrap();
        assert!(report.candidates_tested > 0);
    }

    #[test]
    fn order0_option_is_carried_into_the_image() {
        let report = compress(
            &salty_program(),
            BriscOptions {
                order0: true,
                ..BriscOptions::default()
            },
        )
        .unwrap();
        assert!(report.image.order0);
    }

    #[test]
    fn entries_stay_within_the_decoder_pattern_cap() {
        // Twelve copies of one long straight-line body: the combinations
        // of each pass double in length, so without the cap the
        // compressor adopts an 18-instruction entry that
        // `BriscImage::from_bytes` rejects. (The smallest synthetic
        // program found to trip the cap, seed 1 at 410 functions, takes
        // too long to compress in a debug build.)
        let body: String = (0..24)
            .map(|i| format!("g{} = g{} + a * {} - b;\n", i % 6, (i + 1) % 6, i % 5 + 1))
            .collect();
        let mut src = String::from("int g0; int g1; int g2; int g3; int g4; int g5;\n");
        for f in 0..12 {
            src.push_str(&format!(
                "int f{f}(int a, int b) {{\n{body}return g0;\n}}\n"
            ));
        }
        src.push_str("int main() { return f0(1, 2) + f11(3, 4); }\n");
        let report = compress(&vm_program(&src), BriscOptions::default()).unwrap();
        let longest = report.image.dictionary.iter().map(DictEntry::len).max();
        assert!(
            longest <= Some(MAX_ENTRY_PATTERNS),
            "longest entry {longest:?}"
        );
        let back = BriscImage::from_bytes(&report.image.to_bytes()).unwrap();
        assert_eq!(back, report.image);
    }

    #[test]
    fn branch_targets_stay_item_aligned() {
        // A loop with a backward branch: the target must remain an item
        // start through all rewriting.
        let p = vm_program(
            "int main() { int s = 0; int i; for (i = 0; i < 50; i++) s += i * 3; return s; }",
        );
        let report = compress(&p, BriscOptions::default()).unwrap();
        // Round-trip the image to prove targets still decode.
        let bytes = report.image.to_bytes();
        let back = BriscImage::from_bytes(&bytes).unwrap();
        assert_eq!(back, report.image);
    }
}
