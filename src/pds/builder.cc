/**
 * @file
 * LightIR emission for the persistent data structures. Every persistent
 * store here has a mirror line in model.cc's apply() — the two files
 * encode the same store stream and must change together.
 *
 * The pmtx build wraps each instrumented store in the undo-log
 * expansion (log address+old value, fence, bump the count, fence,
 * store), commits every spec.opsPerTx ops with fence/clear/fence, and
 * prepends a rollback-and-resume recovery preamble to the driver entry
 * — the software-transaction protocol of Persistent Memory
 * Transactions (Marathe et al.) expressed at the IR level. Scratch
 * spills, the undo log itself and the served-op counter are plain
 * stores: they carry no crash-relevant state.
 */

#include "pds/pds.hh"

#include <sstream>

#include "common/logging.hh"
#include "ir/verifier.hh"

namespace lwsp {
namespace pds {

namespace {

using ir::BasicBlock;
using ir::BlockId;
using ir::FuncId;
using ir::Instruction;
using ir::Opcode;
using ir::Reg;

constexpr Reg r1 = 1, r2 = 2, r3 = 3, r4 = 4, r5 = 5, r6 = 6, r7 = 7,
              r8 = 8, r9 = 9, r10 = 10, r11 = 11, r12 = 12, r13 = 13,
              r14 = 14;

constexpr std::uint64_t hashMult = 2654435761ull;

/**
 * Per-function emission cursor. pstore() is the one place the pmtx
 * instrumentation exists; everything else is thin sugar over the
 * Instruction factories.
 */
struct Emitter
{
    ir::Function &f;
    const PdsParams &p;
    bool pmtx;
    BasicBlock *cur = nullptr;

    // Base-relative offsets (r1 holds p.base everywhere).
    std::int64_t
    off(Addr a) const
    {
        return static_cast<std::int64_t>(a - p.base);
    }

    BasicBlock &nb() { return f.addBlock(); }
    void at(BasicBlock &b) { cur = &b; }
    void emit(Instruction i) { cur->append(i); }

    void movi(Reg rd, std::uint64_t v)
    {
        emit(Instruction::movi(rd, static_cast<std::int64_t>(v)));
    }
    void alu(Opcode op, Reg rd, Reg a, Reg b)
    {
        emit(Instruction::alu(op, rd, a, b));
    }
    void addi(Reg rd, Reg a, std::int64_t imm)
    {
        emit(Instruction::aluImm(Opcode::AddI, rd, a, imm));
    }
    void muli(Reg rd, Reg a, std::int64_t imm)
    {
        emit(Instruction::aluImm(Opcode::MulI, rd, a, imm));
    }
    void load(Reg rd, Reg base, std::int64_t o)
    {
        emit(Instruction::load(rd, base, o));
    }
    /** Plain store: never undo-logged (scratch, served, undo area). */
    void store(Reg base, std::int64_t o, Reg val)
    {
        emit(Instruction::store(base, o, val));
    }
    void jmp(BasicBlock &t) { emit(Instruction::jmp(t.id())); }
    void br(Opcode op, Reg a, Reg b, BasicBlock &t, BasicBlock &ft)
    {
        emit(Instruction::branch(op, a, b, t.id(), ft.id()));
    }
    void call(FuncId callee) { emit(Instruction::call(callee)); }
    void ret() { emit(Instruction::simple(Opcode::Ret)); }
    void fence() { emit(Instruction::simple(Opcode::Fence)); }

    /**
     * Persistent (crash-relevant) store. Plain build: one Store. pmtx
     * build: undo-log expansion on r12-r14 — callers must not pass
     * r12-r14 as @p base / @p val nor keep live values there.
     */
    void
    pstore(Reg base, std::int64_t o, Reg val)
    {
        LWSP_ASSERT(base < r12 && val < r12,
                    "pstore operand collides with pmtx scratch");
        if (pmtx) {
            addi(r12, base, o);                    // target address
            load(r13, r1, off(p.undoCount));       // n
            muli(r14, r13, 16);
            alu(Opcode::Add, r14, r14, r1);        // entry ptr - undoBase
            store(r14, off(p.undoBase), r12);      // entry.addr
            load(r12, r12, 0);                     // old value
            store(r14, off(p.undoBase) + 8, r12);  // entry.old
            fence();                               // entry durable first
            addi(r13, r13, 1);
            store(r1, off(p.undoCount), r13);
            fence();                               // count durable next
        }
        emit(Instruction::store(base, o, val));
    }
};

// Structure cell offsets, mirrored from model.cc.
struct LogOffs
{
    std::int64_t curSeg, curOff, trim, nextId, segs;
    explicit LogOffs(const Emitter &e)
        : curSeg(e.off(e.p.structBase)), curOff(curSeg + 8),
          trim(curSeg + 16), nextId(curSeg + 24), segs(curSeg + 32)
    {}
};

struct HashOffs
{
    std::int64_t curTbl, mask, freeHead, bump, tbl, pool;
    explicit HashOffs(const Emitter &e)
        : curTbl(e.off(e.p.structBase)), mask(curTbl + 8),
          freeHead(curTbl + 16), bump(curTbl + 24), tbl(curTbl + 32),
          pool(tbl + std::int64_t(3) * e.p.buckets * 8)
    {}
};

struct AllocOffs
{
    std::int64_t freeHead, blocks, handles;
    explicit AllocOffs(const Emitter &e)
        : freeHead(e.off(e.p.structBase)), blocks(freeHead + 8),
          handles(blocks + std::int64_t(e.p.blocks) * 16)
    {}
};

// ---------------------------------------------------------------------------
// Log.

void
buildLogAppend(Emitter &e, unsigned broken)
{
    LogOffs L(e);
    const std::int64_t segStride = (e.p.slotsPerSeg + 1) * 8;

    BasicBlock &entry = e.nb();
    BasicBlock &advance = e.nb();
    BasicBlock &wrap = e.nb();
    BasicBlock &reclaim = e.nb();
    BasicBlock &chdr = e.nb();
    BasicBlock &cbody = e.nb();
    BasicBlock &keep = e.nb();
    BasicBlock &skipj = e.nb();
    BasicBlock &cdone = e.nb();
    BasicBlock &storeb = e.nb();

    e.at(entry);                       // r5 = value to append
    e.load(r6, r1, L.curSeg);
    e.load(r7, r1, L.curOff);
    e.movi(r8, e.p.slotsPerSeg);
    e.br(Opcode::Blt, r7, r8, storeb, advance);

    e.at(advance);                     // rotate to the next segment
    e.addi(r6, r6, 1);
    e.movi(r8, e.p.segs);
    e.br(Opcode::Blt, r6, r8, reclaim, wrap);

    e.at(wrap);
    e.movi(r6, 0);
    e.jmp(reclaim);

    e.at(reclaim);                     // compact: keep live entries
    e.pstore(r1, L.curSeg, r6);
    e.muli(r8, r6, segStride);
    e.alu(Opcode::Add, r8, r8, r1);    // seg ptr (used @ [r8+L.segs])
    e.load(r9, r8, L.segs);            // u = used
    e.load(r10, r1, L.trim);
    e.movi(r4, 0);                     // j
    e.movi(r7, 0);                     // w
    e.jmp(chdr);

    e.at(chdr);
    e.br(Opcode::Bge, r4, r9, cdone, cbody);

    e.at(cbody);
    e.muli(r11, r4, 8);
    e.alu(Opcode::Add, r11, r11, r8);
    e.load(r6, r11, L.segs + 8);       // e = seg[j]
    e.movi(r11, 32);
    e.alu(Opcode::Shr, r11, r6, r11);  // id
    e.br(Opcode::Bge, r11, r10, keep, skipj);

    e.at(keep);
    if (broken == 2) {
        // Seeded bug: survivors of a reclaim get their value half
        // flipped — silent corruption the live-multiset walk must
        // flag. (Deliberately geometry-preserving: a keep-condition
        // bug would diverge segment occupancy from the tape
        // generator's feasibility model and overflow a segment.)
        e.movi(r11, 1);
        e.alu(Opcode::Xor, r6, r6, r11);
    }
    e.muli(r11, r7, 8);
    e.alu(Opcode::Add, r11, r11, r8);
    e.pstore(r11, L.segs + 8, r6);     // seg[w] = e
    e.addi(r7, r7, 1);
    e.jmp(skipj);

    e.at(skipj);
    e.addi(r4, r4, 1);
    e.jmp(chdr);

    e.at(cdone);
    e.pstore(r8, L.segs, r7);          // used = w
    e.pstore(r1, L.curOff, r7);
    e.jmp(storeb);

    e.at(storeb);                      // append at (curSeg, curOff)
    e.load(r6, r1, L.curSeg);
    e.load(r7, r1, L.curOff);
    e.load(r9, r1, L.nextId);
    e.movi(r8, 32);
    e.alu(Opcode::Shl, r8, r9, r8);
    e.alu(Opcode::Or, r8, r8, r5);     // entry = id<<32 | v
    e.muli(r10, r6, segStride);
    e.alu(Opcode::Add, r10, r10, r1);  // seg ptr
    e.muli(r11, r7, 8);
    e.alu(Opcode::Add, r11, r11, r10);
    e.pstore(r11, L.segs + 8, r8);
    e.addi(r7, r7, 1);
    e.pstore(r10, L.segs, r7);
    e.pstore(r1, L.curOff, r7);
    e.addi(r9, r9, 1);
    e.pstore(r1, L.nextId, r9);
    e.ret();
}

void
buildLogTrim(Emitter &e)
{
    LogOffs L(e);
    BasicBlock &entry = e.nb();
    BasicBlock &clamp = e.nb();
    BasicBlock &dostore = e.nb();

    e.at(entry);                       // r4 = n
    e.load(r6, r1, L.trim);
    e.alu(Opcode::Add, r6, r6, r4);
    e.load(r7, r1, L.nextId);
    e.br(Opcode::Bge, r6, r7, clamp, dostore);

    e.at(clamp);
    e.emit(Instruction::alu(Opcode::Mov, r6, r7, 0));
    e.jmp(dostore);

    e.at(dostore);
    e.pstore(r1, L.trim, r6);
    e.ret();
}

// ---------------------------------------------------------------------------
// Hash table.

/** Common prologue: r8 = cur table ptr, r9 = bucket ptr for key r4. */
void
emitHashBucket(Emitter &e, const HashOffs &H, unsigned broken)
{
    e.load(r6, r1, H.curTbl);
    e.load(r7, r1, H.mask);
    e.muli(r8, r6, std::int64_t(e.p.buckets) * 8);
    e.alu(Opcode::Add, r8, r8, r1);    // tbl ptr (buckets @ [r8+H.tbl])
    e.movi(r9, hashMult);
    e.alu(Opcode::Mul, r9, r4, r9);
    if (broken == 2)                   // seeded bug: off-by-one bucket
        e.addi(r9, r9, 1);
    e.alu(Opcode::And, r9, r9, r7);
    e.muli(r9, r9, 8);
    e.alu(Opcode::Add, r9, r9, r8);    // bucket ptr
}

void
buildHashInsert(Emitter &e, unsigned broken)
{
    HashOffs H(e);
    BasicBlock &entry = e.nb();
    BasicBlock &pop = e.nb();
    BasicBlock &bump = e.nb();
    BasicBlock &have = e.nb();

    e.at(entry);                       // r4 = key, r5 = value
    emitHashBucket(e, H, broken);
    e.load(r10, r1, H.freeHead);
    e.movi(r6, 0);
    e.br(Opcode::Beq, r10, r6, bump, pop);

    e.at(pop);                         // node from the free list
    e.addi(r6, r10, -1);
    e.muli(r6, r6, 32);
    e.alu(Opcode::Add, r6, r6, r1);    // node ptr
    e.load(r11, r6, H.pool + 16);
    e.pstore(r1, H.freeHead, r11);
    e.jmp(have);

    e.at(bump);                        // node from bump allocation
    e.load(r10, r1, H.bump);
    e.addi(r10, r10, 1);
    e.pstore(r1, H.bump, r10);
    e.addi(r6, r10, -1);
    e.muli(r6, r6, 32);
    e.alu(Opcode::Add, r6, r6, r1);
    e.jmp(have);

    e.at(have);                        // r6 = node ptr, r10 = idx1
    e.pstore(r6, H.pool + 0, r4);
    e.pstore(r6, H.pool + 8, r5);
    e.load(r11, r9, H.tbl);
    e.pstore(r6, H.pool + 16, r11);    // node.next = old head
    e.pstore(r9, H.tbl, r10);          // bucket = idx1
    e.ret();
}

void
buildHashDelete(Emitter &e)
{
    HashOffs H(e);
    BasicBlock &entry = e.nb();
    BasicBlock &walk = e.nb();
    BasicBlock &chk = e.nb();
    BasicBlock &body = e.nb();
    BasicBlock &adv = e.nb();
    BasicBlock &unlink = e.nb();
    BasicBlock &unhead = e.nb();
    BasicBlock &unmid = e.nb();
    BasicBlock &push = e.nb();
    BasicBlock &done = e.nb();

    e.at(entry);                       // r4 = key
    emitHashBucket(e, H, 0);
    e.load(r10, r9, H.tbl);            // cur (idx1)
    e.movi(r7, 0);                     // prev node ptr (0 = bucket head)
    e.movi(r8, e.p.pool + 1);          // chain bound
    e.jmp(walk);

    e.at(walk);
    e.movi(r11, 0);
    e.br(Opcode::Beq, r10, r11, done, chk);

    e.at(chk);
    e.addi(r8, r8, -1);
    e.movi(r11, 0);
    e.br(Opcode::Beq, r8, r11, done, body);

    e.at(body);
    e.addi(r6, r10, -1);
    e.muli(r6, r6, 32);
    e.alu(Opcode::Add, r6, r6, r1);    // node ptr
    e.load(r11, r6, H.pool + 0);
    e.br(Opcode::Beq, r11, r4, unlink, adv);

    e.at(adv);
    e.emit(Instruction::alu(Opcode::Mov, r7, r6, 0));
    e.load(r10, r6, H.pool + 16);
    e.jmp(walk);

    e.at(unlink);
    e.load(r11, r6, H.pool + 16);      // successor
    e.movi(r8, 0);
    e.br(Opcode::Beq, r7, r8, unhead, unmid);

    e.at(unhead);
    e.pstore(r9, H.tbl, r11);          // bucket = successor
    e.jmp(push);

    e.at(unmid);
    e.pstore(r7, H.pool + 16, r11);    // prev.next = successor
    e.jmp(push);

    e.at(push);                        // node onto the free list
    e.load(r11, r1, H.freeHead);
    e.pstore(r6, H.pool + 16, r11);
    e.pstore(r1, H.freeHead, r10);
    e.jmp(done);

    e.at(done);
    e.ret();
}

void
buildHashLookup(Emitter &e)
{
    HashOffs H(e);
    BasicBlock &entry = e.nb();
    BasicBlock &walk = e.nb();
    BasicBlock &chk = e.nb();
    BasicBlock &body = e.nb();
    BasicBlock &adv = e.nb();
    BasicBlock &found = e.nb();
    BasicBlock &done = e.nb();

    e.at(entry);                       // r4 = key
    emitHashBucket(e, H, 0);
    e.load(r10, r9, H.tbl);
    e.movi(r8, e.p.pool + 1);
    e.movi(r5, 0);                     // found value
    e.jmp(walk);

    e.at(walk);
    e.movi(r11, 0);
    e.br(Opcode::Beq, r10, r11, done, chk);

    e.at(chk);
    e.addi(r8, r8, -1);
    e.movi(r11, 0);
    e.br(Opcode::Beq, r8, r11, done, body);

    e.at(body);
    e.addi(r6, r10, -1);
    e.muli(r6, r6, 32);
    e.alu(Opcode::Add, r6, r6, r1);
    e.load(r11, r6, H.pool + 0);
    e.br(Opcode::Beq, r11, r4, found, adv);

    e.at(adv);
    e.load(r10, r6, H.pool + 16);
    e.jmp(walk);

    e.at(found);
    e.load(r5, r6, H.pool + 8);
    e.jmp(done);

    e.at(done);                        // result += found value
    e.load(r6, r1, e.off(e.p.result));
    e.alu(Opcode::Add, r6, r6, r5);
    e.pstore(r1, e.off(e.p.result), r6);
    e.ret();
}

void
buildHashResize(Emitter &e)
{
    HashOffs H(e);
    const std::int64_t tblStride = std::int64_t(e.p.buckets) * 8;

    BasicBlock &entry = e.nb();
    BasicBlock &grow = e.nb();
    BasicBlock &shrink = e.nb();
    BasicBlock &spill = e.nb();
    BasicBlock &outer = e.nb();
    BasicBlock &outbody = e.nb();
    BasicBlock &pophdr = e.nb();
    BasicBlock &popbody = e.nb();
    BasicBlock &outnext = e.nb();
    BasicBlock &fin = e.nb();

    e.at(entry);
    e.load(r6, r1, H.curTbl);
    e.load(r7, r1, H.mask);
    e.muli(r8, r6, tblStride);
    e.alu(Opcode::Add, r8, r8, r1);    // src tbl ptr
    e.movi(r9, 1);
    e.alu(Opcode::Sub, r9, r9, r6);    // dst index
    e.muli(r10, r9, tblStride);
    e.alu(Opcode::Add, r10, r10, r1);  // dst tbl ptr
    e.movi(r11, 0);
    e.br(Opcode::Beq, r6, r11, grow, shrink);

    e.at(grow);                        // mask: B-1 -> 2B-1
    e.muli(r11, r7, 2);
    e.addi(r11, r11, 1);
    e.jmp(spill);

    e.at(shrink);                      // mask: 2B-1 -> B-1
    e.movi(r4, 1);
    e.alu(Opcode::Shr, r11, r7, r4);
    e.jmp(spill);

    e.at(spill);                       // registers are tight: spill the
    e.store(r1, e.off(e.p.scratch0), r10);  // dst ptr + mask (plain
    e.store(r1, e.off(e.p.scratch1), r11);  // stores: rebuilt on replay)
    e.addi(r7, r7, 1);                 // src bucket count
    e.movi(r4, 0);                     // i
    e.jmp(outer);

    e.at(outer);
    e.br(Opcode::Bge, r4, r7, fin, outbody);

    e.at(outbody);
    e.muli(r5, r4, 8);
    e.alu(Opcode::Add, r5, r5, r8);    // src bucket ptr
    e.jmp(pophdr);

    e.at(pophdr);                      // pop head until bucket empty
    e.load(r6, r5, H.tbl);
    e.movi(r9, 0);
    e.br(Opcode::Beq, r6, r9, outnext, popbody);

    e.at(popbody);
    e.addi(r9, r6, -1);
    e.muli(r9, r9, 32);
    e.alu(Opcode::Add, r9, r9, r1);    // node ptr
    e.load(r10, r9, H.pool + 16);
    e.pstore(r5, H.tbl, r10);          // src bucket = node.next
    e.load(r10, r9, H.pool + 0);       // key
    e.movi(r11, hashMult);
    e.alu(Opcode::Mul, r10, r10, r11);
    e.load(r11, r1, e.off(e.p.scratch1));
    e.alu(Opcode::And, r10, r10, r11); // h' under the dst mask
    e.muli(r10, r10, 8);
    e.load(r11, r1, e.off(e.p.scratch0));
    e.alu(Opcode::Add, r10, r10, r11); // dst bucket ptr
    e.load(r11, r10, H.tbl);
    e.pstore(r9, H.pool + 16, r11);    // node.next = dst head
    e.pstore(r10, H.tbl, r6);          // dst bucket = idx1
    e.jmp(pophdr);

    e.at(outnext);
    e.addi(r4, r4, 1);
    e.jmp(outer);

    e.at(fin);                         // publish the new table
    e.load(r6, r1, H.curTbl);
    e.movi(r9, 1);
    e.alu(Opcode::Sub, r9, r9, r6);
    e.pstore(r1, H.curTbl, r9);
    e.load(r11, r1, e.off(e.p.scratch1));
    e.pstore(r1, H.mask, r11);
    e.ret();
}

// ---------------------------------------------------------------------------
// Allocator.

void
buildAllocAlloc(Emitter &e)
{
    AllocOffs A(e);
    BasicBlock &entry = e.nb();

    e.at(entry);                       // r4 = handle, r5 = payload
    e.load(r6, r1, A.freeHead);        // idx1 (tape guarantees != 0)
    e.addi(r7, r6, -1);
    e.muli(r7, r7, 16);
    e.alu(Opcode::Add, r7, r7, r1);    // block ptr
    e.load(r8, r7, A.blocks);
    e.pstore(r1, A.freeHead, r8);      // free head = block.next
    e.movi(r8, 0);
    e.pstore(r7, A.blocks, r8);        // block.next = 0 (allocated)
    e.pstore(r7, A.blocks + 8, r5);    // payload
    e.muli(r8, r4, 8);
    e.alu(Opcode::Add, r8, r8, r1);
    e.pstore(r8, A.handles, r6);       // handle -> idx1
    e.ret();
}

void
buildAllocFree(Emitter &e, unsigned broken)
{
    AllocOffs A(e);
    BasicBlock &entry = e.nb();

    e.at(entry);                       // r4 = handle
    e.muli(r8, r4, 8);
    e.alu(Opcode::Add, r8, r8, r1);    // handle ptr
    e.load(r6, r8, A.handles);         // idx1 (tape guarantees != 0)
    e.addi(r7, r6, -1);
    e.muli(r7, r7, 16);
    e.alu(Opcode::Add, r7, r7, r1);    // block ptr
    e.load(r9, r1, A.freeHead);
    e.pstore(r7, A.blocks, r9);        // block.next = free head
    e.pstore(r1, A.freeHead, r6);
    if (broken != 2) {
        // Seeded bug (broken==2): the handle keeps pointing at the
        // freed block — the oracle must flag the use-after-free alias.
        e.movi(r9, 0);
        e.pstore(r8, A.handles, r9);
    }
    e.ret();
}

// ---------------------------------------------------------------------------
// Driver.

void
buildDriver(Emitter &e, const PdsSpec &spec,
            const std::vector<FuncId> &opFns)
{
    const PdsParams &p = e.p;
    const std::int64_t tapeOff = e.off(p.tapeBase);

    BasicBlock &entry = e.nb();
    BasicBlock *rollhdr = nullptr, *rollbody = nullptr, *rolldone = nullptr;
    if (e.pmtx) {
        rollhdr = &e.nb();
        rollbody = &e.nb();
        rolldone = &e.nb();
    }
    BasicBlock &resume = e.nb();
    BasicBlock &loop = e.nb();
    BasicBlock &body = e.nb();
    std::vector<BasicBlock *> disp, callb;
    for (std::size_t i = 0; i + 1 < opFns.size(); ++i)
        disp.push_back(&e.nb());
    for (std::size_t i = 0; i < opFns.size(); ++i)
        callb.push_back(&e.nb());
    BasicBlock &opdone = e.nb();
    BasicBlock *commit = e.pmtx ? &e.nb() : nullptr;
    BasicBlock &exitb = e.nb();

    e.at(entry);
    e.movi(r1, p.base);
    if (e.pmtx) {
        // Recovery preamble: roll back any open transaction, newest
        // entry first, then resume from the (rolled-back) opsDone.
        e.load(r11, r1, e.off(p.undoCount));
        e.movi(r12, 0);
        e.br(Opcode::Beq, r11, r12, resume, *rollhdr);

        e.at(*rollhdr);
        e.movi(r12, 0);
        e.br(Opcode::Beq, r11, r12, *rolldone, *rollbody);

        e.at(*rollbody);
        e.addi(r11, r11, -1);
        e.muli(r12, r11, 16);
        e.alu(Opcode::Add, r12, r12, r1);
        e.load(r13, r12, e.off(p.undoBase));      // entry.addr
        e.load(r14, r12, e.off(p.undoBase) + 8);  // entry.old
        e.store(r13, 0, r14);
        e.jmp(*rollhdr);

        e.at(*rolldone);
        e.fence();                     // restores durable before clear
        e.movi(r12, 0);
        e.store(r1, e.off(p.undoCount), r12);
        e.fence();
        e.jmp(resume);
    } else {
        e.jmp(resume);
    }

    e.at(resume);
    e.load(r2, r1, e.off(p.opsDone));  // self-describing op cursor
    e.movi(r3, spec.numOps);
    e.jmp(loop);

    e.at(loop);
    e.br(Opcode::Bge, r2, r3, exitb, body);

    e.at(body);                        // decode tape[i]: op | a<<8, v
    e.muli(r6, r2, 16);
    e.alu(Opcode::Add, r6, r6, r1);
    e.load(r7, r6, tapeOff);
    e.load(r5, r6, tapeOff + 8);
    e.movi(r8, 8);
    e.alu(Opcode::Shr, r4, r7, r8);
    e.movi(r8, 0xffffff);
    e.alu(Opcode::And, r4, r4, r8);    // a
    e.movi(r8, 255);
    e.alu(Opcode::And, r7, r7, r8);    // op
    if (spec.broken == 1) {
        // Seeded ordering bug: the op counter commits before the op's
        // own stores — a crash between them yields an image that claims
        // an op it never performed (checkCrashPrefix must flag it).
        e.addi(r2, r2, 1);
        e.pstore(r1, e.off(p.opsDone), r2);
    }
    e.jmp(opFns.size() > 1 ? *disp[0] : *callb[0]);

    for (std::size_t i = 0; i + 1 < opFns.size(); ++i) {
        e.at(*disp[i]);
        e.movi(r8, i);
        BasicBlock &next =
            i + 2 < opFns.size() ? *disp[i + 1] : *callb[opFns.size() - 1];
        e.br(Opcode::Beq, r7, r8, *callb[i], next);
    }
    for (std::size_t i = 0; i < opFns.size(); ++i) {
        e.at(*callb[i]);
        e.call(opFns[i]);
        e.jmp(opdone);
    }

    e.at(opdone);
    if (spec.broken != 1) {
        e.addi(r2, r2, 1);
        e.pstore(r1, e.off(p.opsDone), r2);
    }
    // Served-op counter: exec-level, monotonic, never rolled back —
    // what the recovery-latency probe watches.
    e.load(r8, r1, e.off(p.served));
    e.addi(r8, r8, 1);
    e.store(r1, e.off(p.served), r8);
    if (e.pmtx) {
        if (spec.opsPerTx > 1) {
            e.movi(r8, spec.opsPerTx - 1);
            e.alu(Opcode::And, r8, r2, r8);
            e.movi(r9, 0);
            e.br(Opcode::Bne, r8, r9, loop, *commit);
        } else {
            e.jmp(*commit);
        }
        e.at(*commit);                 // tx stores durable, then clear
        e.fence();
        e.movi(r8, 0);
        e.store(r1, e.off(p.undoCount), r8);
        e.fence();
        e.jmp(loop);
    } else {
        e.jmp(loop);
    }

    e.at(exitb);
    if (e.pmtx) {
        e.fence();                     // commit a partial tail tx
        e.movi(r8, 0);
        e.store(r1, e.off(p.undoCount), r8);
        e.fence();
    }
    e.emit(Instruction::simple(Opcode::Halt));
}

PdsProgram
buildFromModel(const PdsModel &model, bool pmtx)
{
    const PdsSpec &spec = model.spec();
    PdsProgram out;
    out.params = model.params();

    auto mod = std::make_unique<ir::Module>();
    ir::Function &driver = mod->addFunction("main");

    std::vector<FuncId> opFns;
    switch (spec.kind) {
      case Kind::Log: {
        ir::Function &fa = mod->addFunction("log_append");
        ir::Function &ft = mod->addFunction("log_trim");
        opFns = {fa.id(), ft.id()};
        Emitter ea{fa, out.params, pmtx};
        buildLogAppend(ea, spec.broken);
        Emitter et{ft, out.params, pmtx};
        buildLogTrim(et);
        break;
      }
      case Kind::Hash: {
        ir::Function &fi = mod->addFunction("hash_insert");
        ir::Function &fd = mod->addFunction("hash_delete");
        ir::Function &fl = mod->addFunction("hash_lookup");
        ir::Function &fr = mod->addFunction("hash_resize");
        opFns = {fi.id(), fd.id(), fl.id(), fr.id()};
        Emitter ei{fi, out.params, pmtx};
        buildHashInsert(ei, spec.broken);
        Emitter ed{fd, out.params, pmtx};
        buildHashDelete(ed);
        Emitter el{fl, out.params, pmtx};
        buildHashLookup(el);
        Emitter er{fr, out.params, pmtx};
        buildHashResize(er);
        break;
      }
      case Kind::Alloc: {
        ir::Function &fa = mod->addFunction("alloc_alloc");
        ir::Function &ff = mod->addFunction("alloc_free");
        opFns = {fa.id(), ff.id()};
        Emitter ea{fa, out.params, pmtx};
        buildAllocAlloc(ea);
        Emitter ef{ff, out.params, pmtx};
        buildAllocFree(ef, spec.broken);
        break;
      }
    }

    Emitter ed{driver, out.params, pmtx};
    buildDriver(ed, spec, opFns);

    mod->initialData() = model.initialData();
    ir::verifyModuleOrDie(*mod);
    out.module = std::move(mod);

    std::ostringstream os;
    os << "pds:" << spec.toString() << (pmtx ? " [pmtx]" : "")
       << " footprint=" << out.params.footprintBytes;
    out.summary = os.str();
    return out;
}

} // namespace

PdsProgram
buildPdsProgram(const PdsSpec &spec, bool pmtx,
                const std::vector<PdsOp> &ops)
{
    LWSP_ASSERT(!ops.empty(), "pds program with an empty tape");
    return buildFromModel(PdsModel(spec, ops), pmtx);
}

} // namespace pds
} // namespace lwsp
