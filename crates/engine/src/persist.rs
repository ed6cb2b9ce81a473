//! Catalog persistence: the byte codec behind [`Database::open`].
//!
//! Every durable commit carries a catalog record as the WAL
//! transaction's application metadata, in one of two forms:
//!
//! * a **full image** (`cdpdcat1`): table schemas, heap/B+-tree
//!   *shapes* (page lists and counters — the page *contents* travel in
//!   the WAL as page images), statistics, the retained analyze state,
//!   and an opaque application-state blob (the advisory layer's warm
//!   state). Catalog changes — create table, index DDL, analyze,
//!   statistics refresh, app-state writes — commit one, and every
//!   checkpoint header holds one;
//! * a **delta record** (`cdpddlt1`), for commits whose statements
//!   changed rows only: every table's heap and index shapes, and each
//!   statistics maintainer's counters plus what it gained since the
//!   previous commit (new distinct values, the sample suffix, min/max).
//!   Its size is the page lists plus the gains: it grows with the
//!   tables' page counts (4 bytes a page), not with their distinct sets
//!   and samples.
//!
//! Recovery decodes the header's image and applies every later record
//! in sequence order (a full image replaces the catalog, a delta
//! patches it), then re-attaches every structure to the recovered pager
//! with zero I/O. A header's image is the catalog as of the header's
//! sequence number, so each record applies exactly once.
//!
//! The encoding is versioned (magic + version byte) and *strict*: any
//! truncation, trailing bytes, length mismatch, or a delta that does
//! not extend the state it is applied to decodes to [`Error::Corrupt`],
//! never to a half-built catalog. Statistics are persisted
//! field-exactly — including the maintainer's sampling clock and dirty
//! flags — so a recovered database plans every statement
//! bit-identically to the uninterrupted run.

use crate::catalog::{IndexEntry, IndexSpec, TableEntry};
use crate::Database;
use cdpd_storage::{codec, BTree, HeapFile, Pager};
use cdpd_types::{ColumnDef, ColumnId, Error, PageId, Result, Schema, TableId, Value, ValueType};
use std::collections::BTreeMap;
use std::sync::atomic::Ordering;
use std::sync::{Arc, RwLock};

/// Full catalog image magic: format name + version in one token.
const MAGIC: &[u8; 8] = b"cdpdcat1";

/// Delta catalog record magic.
const DELTA_MAGIC: &[u8; 8] = b"cdpddlt1";

// ---------------------------------------------------------------------
// Primitive writers
// ---------------------------------------------------------------------

pub(crate) fn put_u8(out: &mut Vec<u8>, v: u8) {
    out.push(v);
}

pub(crate) fn put_u16(out: &mut Vec<u8>, v: u16) {
    out.extend_from_slice(&v.to_le_bytes());
}

pub(crate) fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

pub(crate) fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// `f64` as IEEE-754 bits: exact round-trip, no formatting involved.
pub(crate) fn put_f64(out: &mut Vec<u8>, v: f64) {
    put_u64(out, v.to_bits());
}

pub(crate) fn put_bytes(out: &mut Vec<u8>, bytes: &[u8]) {
    put_u32(out, u32::try_from(bytes.len()).expect("blob too large"));
    out.extend_from_slice(bytes);
}

pub(crate) fn put_str(out: &mut Vec<u8>, s: &str) {
    put_bytes(out, s.as_bytes());
}

/// A value list, reusing the row codec (tagged, self-delimiting).
pub(crate) fn put_values(out: &mut Vec<u8>, values: &[Value]) {
    let mut tmp = Vec::new();
    codec::encode_row(values, &mut tmp);
    put_u32(out, u32::try_from(values.len()).expect("too many values"));
    put_bytes(out, &tmp);
}

pub(crate) fn put_opt_value(out: &mut Vec<u8>, v: &Option<Value>) {
    match v {
        None => put_u8(out, 0),
        Some(v) => {
            put_u8(out, 1);
            put_values(out, std::slice::from_ref(v));
        }
    }
}

// ---------------------------------------------------------------------
// Strict reader
// ---------------------------------------------------------------------

/// Cursor over a catalog blob. Every accessor fails with
/// [`Error::Corrupt`] on truncation; [`Reader::finish`] rejects
/// trailing bytes.
pub(crate) struct Reader<'a> {
    buf: &'a [u8],
}

impl<'a> Reader<'a> {
    pub(crate) fn new(buf: &'a [u8]) -> Reader<'a> {
        Reader { buf }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        if self.buf.len() < n {
            return Err(Error::Corrupt(format!(
                "catalog truncated: need {n} bytes, have {}",
                self.buf.len()
            )));
        }
        let (head, rest) = self.buf.split_at(n);
        self.buf = rest;
        Ok(head)
    }

    pub(crate) fn u8(&mut self) -> Result<u8> {
        Ok(self.take(1)?[0])
    }

    pub(crate) fn u16(&mut self) -> Result<u16> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().expect("len")))
    }

    pub(crate) fn u32(&mut self) -> Result<u32> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("len")))
    }

    pub(crate) fn u64(&mut self) -> Result<u64> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("len")))
    }

    pub(crate) fn f64(&mut self) -> Result<f64> {
        Ok(f64::from_bits(self.u64()?))
    }

    pub(crate) fn bytes(&mut self) -> Result<&'a [u8]> {
        let len = self.u32()? as usize;
        self.take(len)
    }

    pub(crate) fn str(&mut self) -> Result<String> {
        let bytes = self.bytes()?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| Error::Corrupt("catalog string is not UTF-8".into()))
    }

    pub(crate) fn values(&mut self) -> Result<Vec<Value>> {
        let count = self.u32()? as usize;
        let bytes = self.bytes()?;
        let values = codec::decode_row(bytes)?;
        if values.len() != count {
            return Err(Error::Corrupt(format!(
                "value list decodes to {} values, header says {count}",
                values.len()
            )));
        }
        Ok(values)
    }

    pub(crate) fn opt_value(&mut self) -> Result<Option<Value>> {
        match self.u8()? {
            0 => Ok(None),
            1 => {
                let mut vs = self.values()?;
                if vs.len() != 1 {
                    return Err(Error::Corrupt("optional value is not a singleton".into()));
                }
                Ok(vs.pop())
            }
            t => Err(Error::Corrupt(format!("bad option tag {t}"))),
        }
    }

    pub(crate) fn finish(self) -> Result<()> {
        if self.buf.is_empty() {
            Ok(())
        } else {
            Err(Error::Corrupt(format!(
                "catalog has {} trailing bytes",
                self.buf.len()
            )))
        }
    }
}

// ---------------------------------------------------------------------
// Catalog codec
// ---------------------------------------------------------------------

/// Serialize the whole catalog (plus the application-state blob) into
/// a full image: the record of a catalog-changing commit, and what
/// every checkpoint header holds.
pub(crate) fn encode_catalog(db: &Database) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(MAGIC);
    put_u32(&mut out, db.next_table_id.load(Ordering::Relaxed));
    put_bytes(&mut out, &db.app_state.read().expect("app state poisoned"));
    let tables = db.tables.read().expect("catalog lock poisoned");
    put_u32(&mut out, tables.len() as u32);
    for (name, entry) in tables.iter() {
        let e = entry.read().expect("table lock poisoned");
        put_str(&mut out, name);
        encode_table(&mut out, &e);
    }
    out
}

fn encode_table(out: &mut Vec<u8>, e: &TableEntry) {
    put_u32(out, e.id.0);
    // Schema: column names + type tags.
    put_u16(out, e.schema.len() as u16);
    for col in e.schema.columns() {
        put_str(out, &col.name);
        put_u8(out, type_tag(col.ty));
    }
    put_heap_shape(out, &e.heap);
    // Retained analyze state and the materialized snapshot. Both are
    // persisted: the snapshot may lag the maintainer (DML folded in but
    // not yet refreshed), and recovery must reproduce exactly that.
    match &e.maintainer {
        None => put_u8(out, 0),
        Some(m) => {
            put_u8(out, 1);
            m.encode(out);
        }
    }
    match &e.stats {
        None => put_u8(out, 0),
        Some(s) => {
            put_u8(out, 1);
            s.encode(out);
        }
    }
    // Indexes, in canonical-name order (BTreeMap iteration).
    put_u32(out, e.indexes.len() as u32);
    for ix in e.indexes.values() {
        put_str(out, &ix.spec.table);
        put_u16(out, ix.spec.columns.len() as u16);
        for c in &ix.spec.columns {
            put_str(out, c);
        }
        put_u16(out, ix.columns.len() as u16);
        for c in &ix.columns {
            put_u16(out, c.0);
        }
        put_btree_shape(out, &ix.btree);
    }
}

fn put_pages(out: &mut Vec<u8>, pages: &[PageId]) {
    put_u32(out, pages.len() as u32);
    for p in pages {
        put_u32(out, p.0);
    }
}

fn put_heap_shape(out: &mut Vec<u8>, heap: &HeapFile) {
    put_pages(out, heap.pages());
    put_u64(out, heap.row_count());
}

fn put_btree_shape(out: &mut Vec<u8>, btree: &BTree) {
    put_u32(out, btree.root().0);
    put_u32(out, btree.height());
    put_pages(out, btree.pages());
    put_u64(out, btree.leaf_count());
    put_u64(out, btree.entry_count());
}

fn read_heap_shape(r: &mut Reader<'_>, pager: &Arc<Pager>) -> Result<HeapFile> {
    let pages = read_pages(r)?;
    let row_count = r.u64()?;
    Ok(HeapFile::from_parts(pager.clone(), pages, row_count))
}

fn read_btree_shape(r: &mut Reader<'_>, pager: &Arc<Pager>) -> Result<BTree> {
    let root = PageId(r.u32()?);
    let height = r.u32()?;
    let pages = read_pages(r)?;
    let leaf_count = r.u64()?;
    let entry_count = r.u64()?;
    Ok(BTree::from_parts(
        pager.clone(),
        root,
        height,
        pages,
        leaf_count,
        entry_count,
    ))
}

/// Serialize what row DML changed since the previous commit — the
/// delta record a commit logs when no catalog change is pending. Tables,
/// schemas, index sets, statistics snapshots, and the app-state blob
/// cannot have moved since the last full image (changing any of them
/// forces a full one), so the record holds only shapes and maintainer
/// gains. Tables and indexes are named so replay can check it patches
/// the catalog it was written against.
pub(crate) fn encode_delta(db: &Database) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(DELTA_MAGIC);
    let tables = db.tables.read().expect("catalog lock poisoned");
    put_u32(&mut out, tables.len() as u32);
    for (name, entry) in tables.iter() {
        let e = entry.read().expect("table lock poisoned");
        put_str(&mut out, name);
        put_heap_shape(&mut out, &e.heap);
        match &e.maintainer {
            None => put_u8(&mut out, 0),
            Some(m) => {
                put_u8(&mut out, 1);
                m.encode_delta(&mut out);
            }
        }
        put_u32(&mut out, e.indexes.len() as u32);
        for (ix_name, ix) in &e.indexes {
            put_str(&mut out, ix_name);
            put_btree_shape(&mut out, &ix.btree);
        }
    }
    out
}

/// Patch `db` with one [`encode_delta`] record.
fn apply_delta(db: &Database, bytes: &[u8]) -> Result<()> {
    let mut r = Reader::new(bytes);
    if r.take(DELTA_MAGIC.len())? != DELTA_MAGIC {
        return Err(Error::Corrupt("bad catalog record magic".into()));
    }
    let tables = db.tables.read().expect("catalog lock poisoned");
    if r.u32()? as usize != tables.len() {
        return Err(Error::Corrupt("catalog delta table count mismatch".into()));
    }
    for (name, entry) in tables.iter() {
        let mut e = entry.write().expect("table lock poisoned");
        if r.str()? != *name {
            return Err(Error::Corrupt(format!("catalog delta skips table {name}")));
        }
        e.heap = read_heap_shape(&mut r, &db.pager)?;
        match (r.u8()?, &mut e.maintainer) {
            (0, None) => {}
            (1, Some(m)) => m.apply_delta(&mut r)?,
            _ => {
                return Err(Error::Corrupt(format!(
                    "catalog delta disagrees on {name}'s statistics state"
                )))
            }
        }
        if r.u32()? as usize != e.indexes.len() {
            return Err(Error::Corrupt("catalog delta index count mismatch".into()));
        }
        for (ix_name, ix) in e.indexes.iter_mut() {
            if r.str()? != *ix_name {
                return Err(Error::Corrupt(format!(
                    "catalog delta skips index {ix_name}"
                )));
            }
            ix.btree = read_btree_shape(&mut r, &db.pager)?;
        }
    }
    drop(tables);
    r.finish()
}

/// Rebuild the committed database from a checkpoint header's image and
/// the records of the WAL transactions past it, oldest first: a full
/// image replaces the catalog, a delta patches it. Every maintainer's
/// journal then starts empty — all of it is committed.
pub(crate) fn recover(pager: Arc<Pager>, image: &[u8], records: &[Vec<u8>]) -> Result<Database> {
    let mut db = if image.is_empty() {
        Database::empty(pager.clone())
    } else {
        decode_catalog(image, pager.clone())?
    };
    for record in records {
        if record.starts_with(MAGIC) {
            db = decode_catalog(record, pager.clone())?;
        } else {
            apply_delta(&db, record)?;
        }
    }
    for entry in db.tables.read().expect("catalog lock poisoned").values() {
        if let Some(m) = entry
            .write()
            .expect("table lock poisoned")
            .maintainer
            .as_mut()
        {
            m.track_deltas();
        }
    }
    Ok(db)
}

/// A durable commit captured the current catalog: empty every
/// maintainer's journal. Runs under the exclusive commit phase, so the
/// table read locks it takes never wait on a writer.
pub(crate) fn mark_committed(db: &Database) {
    for entry in db.tables.read().expect("catalog lock poisoned").values() {
        if let Some(m) = &entry.read().expect("table lock poisoned").maintainer {
            m.mark_committed();
        }
    }
}

/// Rebuild a [`Database`] from a committed catalog blob and the
/// recovered pager. Pure metadata surgery: no page I/O happens here.
pub(crate) fn decode_catalog(bytes: &[u8], pager: Arc<Pager>) -> Result<Database> {
    let mut r = Reader::new(bytes);
    let magic = r.take(MAGIC.len())?;
    if magic != MAGIC {
        return Err(Error::Corrupt("bad catalog magic".into()));
    }
    let next_table_id = r.u32()?;
    let app_state = r.bytes()?.to_vec();
    let n_tables = r.u32()? as usize;
    let mut tables = BTreeMap::new();
    for _ in 0..n_tables {
        let name = r.str()?;
        let entry = decode_table(&mut r, &pager)?;
        if tables.insert(name, Arc::new(RwLock::new(entry))).is_some() {
            return Err(Error::Corrupt("duplicate table in catalog".into()));
        }
    }
    r.finish()?;
    let db = Database::empty(pager);
    *db.tables.write().expect("catalog lock poisoned") = tables;
    db.next_table_id.store(next_table_id, Ordering::Relaxed);
    *db.app_state.write().expect("app state poisoned") = app_state;
    Ok(db)
}

fn decode_table(r: &mut Reader<'_>, pager: &Arc<Pager>) -> Result<TableEntry> {
    let id = TableId(r.u32()?);
    let n_cols = r.u16()? as usize;
    let mut cols = Vec::with_capacity(n_cols);
    for _ in 0..n_cols {
        let name = r.str()?;
        let ty = type_from_tag(r.u8()?)?;
        cols.push(ColumnDef::new(name, ty));
    }
    let schema = Arc::new(Schema::new(cols));
    let heap = read_heap_shape(r, pager)?;
    let maintainer = match r.u8()? {
        0 => None,
        1 => Some(crate::stats::StatsMaintainer::decode(r)?),
        t => return Err(Error::Corrupt(format!("bad maintainer tag {t}"))),
    };
    let stats = match r.u8()? {
        0 => None,
        1 => Some(Arc::new(crate::stats::TableStats::decode(r)?)),
        t => return Err(Error::Corrupt(format!("bad stats tag {t}"))),
    };
    let n_indexes = r.u32()? as usize;
    let mut indexes = BTreeMap::new();
    for _ in 0..n_indexes {
        let table = r.str()?;
        let n_spec_cols = r.u16()? as usize;
        let mut spec_cols = Vec::with_capacity(n_spec_cols);
        for _ in 0..n_spec_cols {
            spec_cols.push(r.str()?);
        }
        let spec = IndexSpec {
            table,
            columns: spec_cols,
        };
        let n_key_cols = r.u16()? as usize;
        let mut columns = Vec::with_capacity(n_key_cols);
        for _ in 0..n_key_cols {
            columns.push(ColumnId(r.u16()?));
        }
        let btree = read_btree_shape(r, pager)?;
        if indexes
            .insert(
                spec.name(),
                IndexEntry {
                    spec,
                    columns,
                    btree,
                },
            )
            .is_some()
        {
            return Err(Error::Corrupt("duplicate index in catalog".into()));
        }
    }
    // Epochs are per-process: a recovered catalog restarts at 0 with
    // no pinned snapshots or in-flight builds.
    Ok(TableEntry {
        id,
        schema,
        heap,
        stats,
        maintainer,
        indexes,
        epoch: 0,
        version: None,
        build_logs: Vec::new(),
    })
}

fn read_pages(r: &mut Reader<'_>) -> Result<Vec<PageId>> {
    let n = r.u32()? as usize;
    let mut pages = Vec::with_capacity(n.min(1 << 20));
    for _ in 0..n {
        pages.push(PageId(r.u32()?));
    }
    Ok(pages)
}

fn type_tag(ty: ValueType) -> u8 {
    match ty {
        ValueType::Int => 0,
        ValueType::Str => 1,
    }
}

fn type_from_tag(tag: u8) -> Result<ValueType> {
    match tag {
        0 => Ok(ValueType::Int),
        1 => Ok(ValueType::Str),
        t => Err(Error::Corrupt(format!("bad column type tag {t}"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reader_rejects_truncation_and_trailing_bytes() {
        let mut out = Vec::new();
        put_u64(&mut out, 7);
        let mut r = Reader::new(&out[..4]);
        assert!(r.u64().is_err());
        let mut r = Reader::new(&out);
        assert_eq!(r.u64().unwrap(), 7);
        r.finish().unwrap();
        let mut out = Vec::new();
        put_u64(&mut out, 7);
        put_u8(&mut out, 1);
        let mut r = Reader::new(&out);
        r.u64().unwrap();
        assert!(matches!(r.finish(), Err(Error::Corrupt(_))));
    }

    #[test]
    fn value_round_trips() {
        let vals = vec![
            Value::Int(-5),
            Value::Str("héllo".into()),
            Value::Int(i64::MAX),
        ];
        let mut out = Vec::new();
        put_values(&mut out, &vals);
        put_opt_value(&mut out, &Some(Value::Str("x".into())));
        put_opt_value(&mut out, &None);
        let mut r = Reader::new(&out);
        assert_eq!(r.values().unwrap(), vals);
        assert_eq!(r.opt_value().unwrap(), Some(Value::Str("x".into())));
        assert_eq!(r.opt_value().unwrap(), None);
        r.finish().unwrap();
    }

    /// The header holds a `cdpdcat1` full image and row DML logs
    /// `cdpddlt1` deltas on top of it; a delta applied to a state it
    /// does not extend (here: twice) is refused, never half-applied.
    #[test]
    fn deltas_patch_the_image_they_extend_and_only_once() {
        use cdpd_storage::{DurableOptions, MemVfs};
        use cdpd_types::ColumnDef;
        let vfs = MemVfs::new();
        let opts = DurableOptions {
            checkpoint_wal_bytes: 0,
            ..DurableOptions::default()
        };
        let db = Database::open_with_vfs(Arc::new(vfs.clone()), opts.clone()).unwrap();
        db.create_table("t", Schema::new(vec![ColumnDef::int("a")]))
            .unwrap();
        for i in 0..20 {
            db.insert("t", &[Value::Int(i)]).unwrap();
        }
        db.analyze("t").unwrap();
        db.checkpoint().unwrap();
        db.insert("t", &[Value::Int(100)]).unwrap();
        drop(db);

        let opened = Pager::open_durable(Arc::new(vfs), opts).unwrap();
        assert!(opened.app_image.starts_with(MAGIC));
        assert_eq!(opened.app_records.len(), 1);
        assert!(opened.app_records[0].starts_with(DELTA_MAGIC));
        let pager = Arc::new(opened.pager);
        let once = recover(pager.clone(), &opened.app_image, &opened.app_records).unwrap();
        once.refresh_stats("t").unwrap();
        let stats = once.stats("t").unwrap().expect("analyzed");
        assert_eq!(
            stats.columns[0].distinct, 21,
            "the delta's new distinct value is back"
        );
        let twice = [opened.app_records[0].clone(), opened.app_records[0].clone()];
        assert!(matches!(
            recover(pager, &opened.app_image, &twice),
            Err(Error::Corrupt(_))
        ));
    }

    #[test]
    fn bad_magic_is_corrupt() {
        let pager = Arc::new(Pager::new());
        match decode_catalog(b"notacat!rest", pager) {
            Err(Error::Corrupt(_)) => {}
            Err(e) => panic!("expected Corrupt, got {e}"),
            Ok(_) => panic!("bad magic decoded"),
        }
    }
}
