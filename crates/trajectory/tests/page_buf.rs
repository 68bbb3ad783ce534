//! `PageBuf`: zeroed contents, independent clones, the 1 MiB cut-off
//! between heap and mapping, and a mapping that leaves the address space
//! when the buffer is dropped.

use std::sync::Mutex;

use trajectory::pagebuf::{PageBuf, MAP_MIN_BYTES};

/// Values of a buffer just over the cut-off.
const MAPPED_LEN: usize = MAP_MIN_BYTES / 8 + 1;

/// Held by every test: none maps or unmaps while another reads
/// `/proc/self/maps`.
static SERIAL: Mutex<()> = Mutex::new(());

#[test]
fn contents_start_zeroed_and_writes_round_trip() {
    let _serial = SERIAL.lock().unwrap();
    for len in [0, 3, 1000, MAPPED_LEN] {
        let mut buf = PageBuf::<f64>::zeroed(len);
        assert_eq!(buf.len(), len);
        assert!(buf.iter().all(|&v| v == 0.0), "len {len}: not zeroed");
        for (i, v) in buf.iter_mut().enumerate() {
            *v = i as f64 * 0.5;
        }
        assert!(buf.iter().enumerate().all(|(i, &v)| v == i as f64 * 0.5));
    }
    let mut grown = PageBuf::new();
    for i in 0..MAPPED_LEN as u32 {
        grown.push(i);
    }
    assert!(grown.is_mapped());
    assert!(grown.iter().copied().eq(0..MAPPED_LEN as u32));
    let collected: PageBuf<u32> = (0..10).collect();
    assert_eq!(&collected[..], &(0..10).collect::<Vec<u32>>()[..]);
}

#[test]
fn clone_is_equal_but_independent() {
    let _serial = SERIAL.lock().unwrap();
    for len in [5, MAPPED_LEN] {
        let original: PageBuf<u64> = (0..len as u64).collect();
        let mut copy = original.clone();
        assert_eq!(copy[..], original[..]);
        assert_eq!(copy.is_mapped(), original.is_mapped());
        copy[0] = 99;
        copy.push(7);
        assert_eq!(
            original[0], 0,
            "len {len}: a write to the clone reached the original"
        );
        assert_eq!(original.len(), len);
        assert_ne!(copy.as_ptr(), original.as_ptr());
    }
}

#[test]
fn a_buffer_under_the_cut_off_stays_on_the_heap() {
    let _serial = SERIAL.lock().unwrap();
    let under = PageBuf::<f64>::zeroed(MAP_MIN_BYTES / 8 - 1);
    assert!(!under.is_mapped());
    let small = PageBuf::<u32>::with_capacity(1000);
    assert!(!small.is_mapped());
    let over = PageBuf::<f64>::zeroed(MAPPED_LEN);
    assert_eq!(over.is_mapped(), cfg!(unix));
}

/// The `/proc/self/maps` line whose range holds `addr`, if any.
#[cfg(target_os = "linux")]
fn mapping_of(addr: usize) -> Option<String> {
    let maps = std::fs::read_to_string("/proc/self/maps").unwrap();
    maps.lines()
        .find(|line| {
            let range = line.split_whitespace().next().unwrap();
            let (start, end) = range.split_once('-').unwrap();
            let start = usize::from_str_radix(start, 16).unwrap();
            let end = usize::from_str_radix(end, 16).unwrap();
            (start..end).contains(&addr)
        })
        .map(str::to_owned)
}

#[cfg(target_os = "linux")]
#[test]
fn a_dropped_mapped_buffer_leaves_the_address_space() {
    let _serial = SERIAL.lock().unwrap();
    // Three megabytes and a page: a size nothing else here allocates.
    let len = (3 * MAP_MIN_BYTES + 4096) / 8;
    let mut buf = PageBuf::<u64>::zeroed(len);
    assert!(buf.is_mapped());
    buf[len - 1] = 1;
    let (first, last) = (buf.as_ptr() as usize, buf.as_ptr() as usize + 8 * (len - 1));
    let line = mapping_of(first).expect("the buffer is mapped");
    assert!(
        line.split_whitespace().nth(5).is_none(),
        "the buffer is not an anonymous mapping: {line}"
    );
    assert_eq!(mapping_of(last), Some(line), "one mapping holds the buffer");
    drop(buf);
    assert_eq!(mapping_of(first), None, "the first page is still mapped");
    assert_eq!(mapping_of(last), None, "the last page is still mapped");
}
